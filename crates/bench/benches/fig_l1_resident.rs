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
//! The acceptance criteria of the 64 MiB point (at least one warp, at least
//! one renormalised frozen level, miss counts bit-identical to classic
//! simulation) are pinned by `l1_resident_over_64_mib` in
//! `tests/warp_schedule.rs`.
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

fn bench_l1_resident(criterion: &mut Criterion) {
    let engine = Engine::new();
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
