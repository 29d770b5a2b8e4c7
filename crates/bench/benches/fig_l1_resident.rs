//! L1-resident kernels vs. outer-level size: the scenario relative-label
//! (epoch) addressing unlocks.
//!
//! A kernel that re-sweeps a 4 KiB array fits entirely into the 32 KiB L1:
//! after the first time step every access hits L1 and the outer levels keep
//! the symbolic labels they were filled with during warm-up — *frozen*.
//! Normalised by the current iterator, those frozen labels would drift
//! away from every later match attempt and warping would degenerate to
//! explicit simulation of all `T × N` accesses.  With epoch-relative keys
//! the frozen levels match as bit-identical, the time loop warps, and the
//! end-to-end time stays near-flat across a 256 KiB → 64 MiB outer-level
//! sweep.
//!
//! Before timing anything the bench asserts the acceptance criteria once:
//! on the 64 MiB outer level the warping backend applies at least one warp,
//! renormalises at least one frozen level, and reports miss counts
//! bit-identical to classic simulation.
//!
//! Run with `cargo bench --bench fig_l1_resident`; CI compiles it via
//! `cargo bench --no-run`.

use cache_model::{CacheConfig, MemoryConfig, ReplacementPolicy};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use engine::{Backend, Engine, KernelSpec, SimRequest};
use std::time::Duration;

/// A long-running kernel whose 4 KiB working set is L1-resident: the inner
/// sweep is short enough that the only warping opportunity is the time
/// loop, which requires matching the frozen outer levels.
fn l1_resident_kernel() -> KernelSpec {
    KernelSpec::source(
        "resident-512",
        "double A[512];\n\
         for (t = 0; t < 20000; t++) for (i = 0; i < 512; i++) A[i] = A[i];",
    )
}

/// The test system's L1/L2 under an outer level of `outer_kib` KiB — the
/// sweep variable, dwarfing the working set at every point.
fn memory(outer_kib: u64) -> MemoryConfig {
    MemoryConfig::new(vec![
        CacheConfig::new(32 * 1024, 8, 64, ReplacementPolicy::Lru),
        CacheConfig::new(256 * 1024, 16, 64, ReplacementPolicy::Lru),
        CacheConfig::new(outer_kib * 1024, 16, 64, ReplacementPolicy::Lru),
    ])
    .unwrap()
}

const SWEEP_KIB: [u64; 4] = [256, 2048, 16 * 1024, 64 * 1024];

fn assert_acceptance(engine: &Engine) {
    let kernel = l1_resident_kernel();
    let memory = memory(64 * 1024);
    let classic = engine
        .run(&SimRequest::new(
            kernel.clone(),
            memory.clone(),
            Backend::Classic,
        ))
        .expect("classic request");
    let warping = engine
        .run(&SimRequest::new(kernel, memory, Backend::warping()))
        .expect("warping request");
    assert_eq!(
        warping.result.levels, classic.result.levels,
        "warping must stay bit-identical to classic on the 64 MiB sweep point"
    );
    let stats = warping.warping.expect("warping stats");
    assert!(stats.warps >= 1, "the time loop must warp");
    assert!(
        stats.stale_label_renorms >= 1,
        "the frozen outer levels must be matched via renormalisation"
    );
}

fn bench_l1_resident(criterion: &mut Criterion) {
    let engine = Engine::new();
    assert_acceptance(&engine);

    let kernel = l1_resident_kernel();
    let mut group = criterion.benchmark_group("fig_l1_resident");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    // Warping with epoch renormalisation: near-flat across the sweep, and
    // independent of the time-loop trip count once the warp lands.
    for outer_kib in SWEEP_KIB {
        let memory = memory(outer_kib);
        group.bench_with_input(
            BenchmarkId::new("warping", format!("{outer_kib}K")),
            &memory,
            |b, memory| {
                b.iter(|| {
                    let request =
                        SimRequest::new(kernel.clone(), memory.clone(), Backend::warping());
                    black_box(engine.run(&request).expect("warping request"))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(fig_l1_resident, bench_l1_resident);
criterion_main!(fig_l1_resident);
