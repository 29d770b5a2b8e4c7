//! Full report for one PolyBench kernel: every backend of the `Engine`
//! facade — warping, classic, trace, HayStack and PolyCache — side by side
//! with timings and miss counts, from a single batched request grid.
//!
//! Run with
//! `cargo run --release --example polybench_report -- <kernel> [dataset]`,
//! e.g. `cargo run --release --example polybench_report -- jacobi-2d small`.

use warpsim::prelude::*;

fn main() -> Result<(), String> {
    let kernel_name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "jacobi-1d".to_owned());
    let dataset = match std::env::args().nth(2).as_deref() {
        Some("small") => Dataset::Small,
        Some("medium") => Dataset::Medium,
        Some("large") => Dataset::Large,
        _ => Dataset::Mini,
    };
    let kernel =
        Kernel::by_name(&kernel_name).ok_or_else(|| format!("unknown kernel `{kernel_name}`"))?;
    let spec = KernelSpec::polybench(kernel, dataset);
    println!("kernel {kernel} at {dataset}");

    // Each backend runs on the memory system it models: the simulators and
    // HayStack on variants of the test system's L1, the hierarchy backends
    // on two-level configurations.
    let plru_l1 = MemoryConfig::test_system_l1(ReplacementPolicy::Plru);
    let lru_l1 = MemoryConfig::test_system_l1(ReplacementPolicy::Lru);
    let fa_l1 = MemoryConfig::from(CacheConfig::fully_associative(
        512,
        64,
        ReplacementPolicy::Lru,
    ));
    let requests = vec![
        SimRequest::new(spec.clone(), plru_l1.clone(), Backend::warping()),
        SimRequest::new(spec.clone(), plru_l1, Backend::Classic),
        SimRequest::new(spec.clone(), lru_l1, Backend::Trace),
        SimRequest::new(spec.clone(), fa_l1, Backend::Haystack),
        SimRequest::new(
            spec.clone(),
            MemoryConfig::polycache_comparison(),
            Backend::PolyCache,
        ),
        SimRequest::new(spec, MemoryConfig::test_system(), Backend::warping()),
    ];
    let labels = [
        "warping (PLRU L1)",
        "classic (PLRU L1)",
        "dinero-style trace (LRU L1)",
        "haystack model (FA LRU)",
        "polycache model (L1+L2 LRU)",
        "warping (L1+L2, test system)",
    ];

    let reports = Engine::new().run_batch(&requests);
    for (label, report) in labels.iter().zip(&reports) {
        match report {
            Ok(report) => println!(
                "{:<28} {:>12} misses   {:>10.1} ms",
                label,
                report.result.last_level_misses(),
                report.sim_ms
            ),
            Err(e) => println!("{label:<28} error: {e}"),
        }
    }
    Ok(())
}
