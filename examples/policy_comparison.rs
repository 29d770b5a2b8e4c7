//! Influence of the replacement policy on cache performance (Fig. 10 of the
//! paper): fan a kernel × policy grid through `Engine::run_batch` and
//! report misses relative to set-associative LRU.
//!
//! Run with `cargo run --release --example policy_comparison [-- <dataset>]`
//! where `<dataset>` is one of `mini`, `small`, `medium`.

use warpsim::prelude::*;

fn main() {
    let dataset = match std::env::args().nth(1).as_deref() {
        Some("small") => Dataset::Small,
        Some("medium") => Dataset::Medium,
        _ => Dataset::Mini,
    };
    let kernels: Vec<KernelSpec> = [
        Kernel::Doitgen,
        Kernel::Durbin,
        Kernel::Jacobi2d,
        Kernel::Trisolv,
        Kernel::Gemm,
    ]
    .into_iter()
    .map(|kernel| KernelSpec::polybench(kernel, dataset))
    .collect();

    // One memory configuration per column: the four policies of the test
    // system's L1 plus the same-capacity fully-associative LRU cache.
    let memories: Vec<MemoryConfig> = ReplacementPolicy::ALL
        .iter()
        .map(|&policy| MemoryConfig::test_system_l1(policy))
        .chain(std::iter::once(MemoryConfig::from(
            CacheConfig::fully_associative(512, 64, ReplacementPolicy::Lru),
        )))
        .collect();

    let engine = Engine::new();
    let grid = SimRequest::grid(&kernels, &memories, &[Backend::warping()]);
    let reports = engine.run_batch(&grid);

    println!(
        "{:<14} {:>12} {:>10} {:>12} {:>14} {:>8}",
        "kernel", "LRU misses", "FA-LRU", "Pseudo-LRU", "Quad-age LRU", "FIFO"
    );
    // Rows come back in grid order: kernels outermost, memories inner.
    for (kernel, row) in kernels.iter().zip(reports.chunks(memories.len())) {
        let misses: Vec<u64> = row
            .iter()
            .map(|report| {
                report
                    .as_ref()
                    .unwrap_or_else(|e| panic!("request failed: {e}"))
                    .result
                    .levels[0]
                    .misses
            })
            .collect();
        // memories order: Lru, Fifo, Plru, Qlru, FA-LRU.
        let (lru, fifo, plru, qlru, fa) = (misses[0], misses[1], misses[2], misses[3], misses[4]);
        let rel = |m: u64| m as f64 / lru.max(1) as f64;
        println!(
            "{:<14} {:>12} {:>10.3} {:>12.3} {:>14.3} {:>8.3}",
            kernel.name(),
            lru,
            rel(fa),
            rel(plru),
            rel(qlru),
            rel(fifo),
        );
    }
}
