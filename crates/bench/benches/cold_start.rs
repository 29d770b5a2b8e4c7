//! Cold-start cost vs. outer-level size.
//!
//! A cache state that allocated every (empty) set up front made
//! constructing a simulator over a 64 MiB outer level cost ~6 ms — once per
//! `SimRequest`, multiplying under batch fan-out — even when the kernel
//! would touch a handful of sets.  The one store every simulator runs on,
//! `FlatLevel`, does not: it costs one zeroed directory of four bytes per
//! set, whose pages stay untouched until a set fills, plus rows appended
//! per filled set.  The classic `MultiLevelSystem` (like the trace and
//! sampled backends) runs on it directly, and symbolic warping keeps its
//! labels in a slab parallel to its rows.
//!
//! Both series below must therefore stay flat across the 256 KiB → 64 MiB
//! sweep:
//!
//! * `construct` — bare state construction plus a first access, for the
//!   warping simulator, the classic `MultiLevelSystem` and the bare
//!   `MultiLevelState`;
//! * `engine_run` — `Engine::run` end-to-end on a tiny kernel, where the
//!   construction cost used to dominate.
//!
//! Run with `cargo bench --bench cold_start`; CI compiles it via
//! `cargo bench --no-run`.

use cache_model::{AccessKind, CacheConfig, MemBlock, MemoryConfig, ReplacementPolicy};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use engine::{Backend, Engine, KernelSpec, SimRequest};
use simulate::{MemorySystem, MultiLevelSystem};
use std::time::Duration;
use warping::WarpingSimulator;

/// A depth-3 hierarchy whose outer level is the sweep variable (the 16-way
/// L2 keeps its set count at 256, a divisor of every sweep point's).
fn memory(outer_kib: u64) -> MemoryConfig {
    MemoryConfig::new(vec![
        CacheConfig::new(32 * 1024, 8, 64, ReplacementPolicy::Lru),
        CacheConfig::new(256 * 1024, 16, 64, ReplacementPolicy::Lru),
        CacheConfig::new(outer_kib * 1024, 16, 64, ReplacementPolicy::Lru),
    ])
    .unwrap()
}

/// A kernel that touches O(1) cache sets: construction cost is the only
/// thing that could grow with the outer level.
fn tiny_kernel() -> KernelSpec {
    KernelSpec::source(
        "touch-64",
        "double A[64];\nfor (i = 0; i < 64; i++) A[i] = A[i];",
    )
}

const SWEEP_KIB: [u64; 4] = [256, 2048, 16 * 1024, 64 * 1024];

fn bench_cold_start(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("cold_start");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));

    // Bare construction + first access: warping simulator and classic
    // multi-level system.
    for outer_kib in SWEEP_KIB {
        let memory = memory(outer_kib);
        group.bench_with_input(
            BenchmarkId::new("construct/warping", format!("{outer_kib}K")),
            &memory,
            |b, memory| {
                b.iter(|| {
                    let mut simulator = WarpingSimulator::new(memory.clone());
                    black_box(&mut simulator);
                    simulator
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("construct/classic", format!("{outer_kib}K")),
            &memory,
            |b, memory| {
                b.iter(|| {
                    let mut system = MultiLevelSystem::new(memory.clone());
                    system.access(0, AccessKind::Read);
                    black_box(system.result())
                })
            },
        );
        // The depth-3 state alone (no simulator bookkeeping): construction
        // plus one access at every level.
        group.bench_with_input(
            BenchmarkId::new("construct/state", format!("{outer_kib}K")),
            &memory,
            |b, memory| {
                b.iter(|| {
                    let mut state = cache_model::MultiLevelState::new(memory);
                    black_box(state.access_block(MemBlock(0)))
                })
            },
        );
    }

    // End-to-end: one engine request per iteration, so per-request
    // construction cost shows up exactly as it would in batch fan-out.
    let engine = Engine::new();
    let kernel = tiny_kernel();
    for outer_kib in SWEEP_KIB {
        let memory = memory(outer_kib);
        for backend in [Backend::Classic, Backend::warping()] {
            group.bench_with_input(
                BenchmarkId::new(format!("engine_run/{backend}"), format!("{outer_kib}K")),
                &memory,
                |b, memory| {
                    b.iter(|| {
                        let request = SimRequest::new(kernel.clone(), memory.clone(), backend);
                        black_box(engine.run(&request).expect("request served"))
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(cold_start, bench_cold_start);
criterion_main!(cold_start);
