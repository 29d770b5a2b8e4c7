//! Fig. 13 (repo extension): warp-match cost vs. outer-level size.
//!
//! A kernel whose working set touches O(1) cache sets is simulated on
//! hierarchies whose outer level grows from 256 KiB to 64 MiB.  Before the
//! incremental warp-match pipeline, every match attempt encoded *every set
//! of every level* into the canonical key, so the simulation time of the
//! warping backend grew linearly with the L3 size even though the kernel
//! never touches most of it.  With per-set fingerprints, dirty-row tracking
//! and sparse keys, the match-attempt cost depends only on the occupied
//! sets: the warping series should stay flat across the size sweep (the
//! classic backend is the L3-size-independent reference).
//!
//! Run with `cargo bench --bench fig13_match_cost`; CI compiles it via
//! `cargo bench --no-run`.

use cache_model::{CacheConfig, MemoryConfig, ReplacementPolicy};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use engine::{Backend, Engine, KernelSpec, SimRequest};
use std::time::Duration;

/// A long-running kernel that re-scans a 4 KiB array: it overflows the
/// 1 KiB L1 (so the outer level keeps being touched and its symbolic labels
/// stay fresh) while occupying only 64 sets of any L3 — O(1) relative to
/// the size sweep — and warps once at the outer loop (after 252 match
/// attempts, at every outer size of the sweep).
fn o1_touch_kernel() -> KernelSpec {
    KernelSpec::source(
        "rescan-512",
        "double A[512];\n\
         for (t = 0; t < 10000; t++) for (i = 0; i < 512; i++) A[i] = A[i];",
    )
}

/// L1 (1 KiB) plus an outer level of `outer_kib` KiB — the sweep variable.
fn memory(outer_kib: u64) -> MemoryConfig {
    MemoryConfig::new(vec![
        CacheConfig::new(1024, 4, 64, ReplacementPolicy::Lru),
        CacheConfig::new(outer_kib * 1024, 16, 64, ReplacementPolicy::Lru),
    ])
    .unwrap()
}

fn bench_match_cost(criterion: &mut Criterion) {
    let engine = Engine::new();
    let kernel = o1_touch_kernel();
    let mut group = criterion.benchmark_group("fig13_match_cost");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    for outer_kib in [256u64, 2048, 16 * 1024, 64 * 1024] {
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
    // The classic per-access baseline only depends on the access count, so
    // one size suffices as the reference line.
    let reference = memory(256);
    group.bench_with_input(
        BenchmarkId::new("classic", "256K"),
        &reference,
        |b, memory| {
            b.iter(|| {
                let request = SimRequest::new(kernel.clone(), memory.clone(), Backend::Classic);
                black_box(engine.run(&request).expect("classic request"))
            })
        },
    );
    group.finish();
}

criterion_group!(fig13, bench_match_cost);
criterion_main!(fig13);
