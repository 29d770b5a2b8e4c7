//! The paper's running example (Figures 1–3 and 5): a 1D stencil simulated
//! on a small cache, showing how warping fast-forwards the simulation after
//! a couple of explicit iterations — all through the `Engine` facade.
//!
//! Run with `cargo run --release --example stencil_warping`.

use warpsim::prelude::*;

fn main() -> Result<(), EngineError> {
    let n = 2_000_000u64;
    let kernel = KernelSpec::source(
        "stencil",
        format!(
            "double A[{n}]; double B[{n}];\n\
             for (i = 1; i < {m}; i++) B[i-1] = A[i-1] + A[i];",
            m = n - 1
        ),
    );
    let engine = Engine::new();

    // Figure 1 uses a fully-associative cache with two lines, one array cell
    // per line: iteration 1 misses three times, every later iteration hits
    // once and misses twice.
    let tiny = CacheConfig::fully_associative(2, 8, ReplacementPolicy::Lru);
    let report = engine.run(&SimRequest::new(kernel.clone(), tiny, Backend::warping()))?;
    let stats = report.warping.expect("warping stats");
    let iterations = n - 2;
    assert_eq!(report.result.levels[0].misses, 3 + 2 * (iterations - 1));
    println!(
        "tiny cache : {} iterations, {} misses, {} accesses simulated explicitly, {} warped",
        iterations,
        report.result.levels[0].misses,
        stats.non_warped_accesses,
        stats.warped_accesses
    );

    // The same stencil on the test system's L1, warping vs non-warping: one
    // two-request batch through the engine.
    let memory = MemoryConfig::test_system_l1(ReplacementPolicy::Plru);
    let reports = engine.run_batch(&SimRequest::grid(
        &[kernel],
        &[memory],
        &[Backend::Classic, Backend::warping()],
    ));
    let mut reports = reports.into_iter();
    let plain = reports.next().expect("classic report")?;
    let warped = reports.next().expect("warping report")?;
    assert_eq!(warped.result, plain.result);
    println!(
        "test-system L1: {} misses; non-warping {:.1} ms, warping {:.1} ms (speedup {:.1}x, \
         {:.3}% non-warped accesses)",
        plain.result.levels[0].misses,
        plain.sim_ms,
        warped.sim_ms,
        plain.sim_ms / warped.sim_ms,
        100.0 * warped.warping.expect("warping stats").non_warped_share,
    );
    Ok(())
}
