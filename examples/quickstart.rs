//! Quickstart: run one kernel through the unified `Engine` facade with and
//! without warping, and print the outcome.
//!
//! Run with `cargo run --release --example quickstart`.

use warpsim::prelude::*;

fn main() -> Result<(), EngineError> {
    // A small matrix-vector product over an upper-triangular matrix — the
    // example of §3.2 of the paper.
    let kernel = KernelSpec::source(
        "triangular-matvec",
        "
        double A[400][400];
        double x[400];
        double c[400];
        for (i = 0; i < 400; i++) {
            c[i] = 0;
            for (j = i; j < 400; j++)
                c[i] = c[i] + A[i][j] * x[j];
        }
    ",
    );

    // The test system's L1: 32 KiB, 8-way, 64-byte lines, Pseudo-LRU.
    let memory = MemoryConfig::test_system_l1(ReplacementPolicy::Plru);
    println!("kernel: {}", kernel.name());
    println!("memory: {memory}");

    let engine = Engine::new();
    let classic = engine.run(&SimRequest::new(
        kernel.clone(),
        memory.clone(),
        Backend::Classic,
    ))?;
    println!(
        "classic: {} accesses, {} misses ({:.2}% miss ratio) in {:.2} ms",
        classic.result.accesses,
        classic.result.levels[0].misses,
        100.0 * classic.result.levels[0].miss_ratio(),
        classic.sim_ms
    );

    let warped = engine.run(&SimRequest::new(kernel, memory, Backend::warping()))?;
    assert_eq!(warped.result, classic.result, "warping is exact");
    let stats = warped.warping.expect("warping reports carry warp stats");
    println!(
        "warping: {} accesses, {} misses, {} warps, {:.2}% of accesses simulated explicitly, \
         in {:.2} ms",
        warped.result.accesses,
        warped.result.levels[0].misses,
        stats.warps,
        100.0 * stats.non_warped_share,
        warped.sim_ms
    );

    // Every report is one JSON object away from being served.
    println!("\nas JSON: {}", warped.to_json());
    Ok(())
}
