//! Compiled walk vs reference walk: the strength-reduced, run-batched
//! access stream against the per-iteration affine evaluation it replaces.
//!
//! Two kernels, both simulated classically (non-warping) on a prebuilt
//! SCoP — [`simulate::simulate`] against [`simulate::simulate_reference`]
//! — so nothing but the walker differs between the timed sides:
//!
//!   * a 64 MiB streaming kernel (`A[i] = 0` over 8 M doubles) — the
//!     best case for run batching: a single-access loop body compiles
//!     into one [`AccessRun`] spanning the whole loop, and the cache
//!     layer collapses the eight same-line accesses of each line into
//!     one real fill plus an arithmetic tail;
//!   * a tiled `gemm` instance (128³ problem, 16×16 tiles) — ragged-tile
//!     if-guards and a five-deep loop nest, the worst case for guard
//!     hoisting and the exactness analysis.
//!
//! Before any timing is recorded the bench **asserts the contract**: both
//! kernels produce bit-identical access counts and per-level hit/miss
//! counters under either walk, and the compiled walk beats the reference
//! walk by ≥4× wall-clock on the streaming kernel (the tiled instance is
//! equivalence-checked but not speed-gated — its guards keep part of the
//! nest on the dynamic path by design).
//!
//! Run with `cargo bench --bench compiled_walk`; CI compiles it via
//! `cargo bench --no-run`.

use cache_model::{CacheConfig, MemoryConfig, ReplacementPolicy};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use engine::KernelSpec;
use scop::Scop;
use simulate::{simulate, simulate_reference, MultiLevelSystem, SimulationResult};
use std::time::{Duration, Instant};

/// 8 M doubles = 64 MiB: the streaming footprint the ≥4× gate runs at.
const STREAM_DOUBLES: usize = 1 << 23;

/// A two-level hierarchy the streaming kernel saturates: 8 KiB 2-way L1,
/// 64 KiB 8-way L2, 64-byte lines (the `sampling_speedup` geometry).
fn memory() -> MemoryConfig {
    MemoryConfig::new(vec![
        CacheConfig::new(8 * 1024, 2, 64, ReplacementPolicy::Lru),
        CacheConfig::new(64 * 1024, 8, 64, ReplacementPolicy::Plru),
    ])
    .expect("two-level hierarchy is compatible")
}

/// The streaming kernel: one write per element, unit stride.  A single
/// access in the loop body keeps the whole nest on the run fast path.
fn streaming_kernel() -> KernelSpec {
    let n = STREAM_DOUBLES;
    KernelSpec::source(
        format!("stream/{n}"),
        format!("double A[{n}]; for (i = 0; i < {n}; i++) A[i] = 0;"),
    )
}

/// The tiled `gemm` instance: guards on every ragged tile edge.
fn tiled_kernel() -> KernelSpec {
    KernelSpec::source(
        "tiled_gemm/128x16".to_string(),
        polybench::parametric::tiled_gemm(128, 128, 128, 16, 16),
    )
}

/// The walker under test: the compiled walk or the reference oracle.
type Walker = fn(&Scop, &mut MultiLevelSystem) -> SimulationResult;

const COMPILED: Walker = simulate;
const REFERENCE: Walker = simulate_reference;

fn run(walker: Walker, scop: &Scop) -> (Duration, SimulationResult) {
    let mut system = MultiLevelSystem::new(memory());
    let start = Instant::now();
    let result = walker(scop, &mut system);
    (start.elapsed(), result)
}

/// Bit-exactness on both kernels, then the ≥4× wall-clock gate on the
/// streaming kernel.  A bench that times two walkers that disagree would
/// be advertising a speedup of the wrong answer.
fn assert_contract(stream: &Scop, tiled: &Scop) {
    for (name, scop) in [("stream", stream), ("tiled_gemm", tiled)] {
        let (_, fast) = run(COMPILED, scop);
        let (_, slow) = run(REFERENCE, scop);
        assert_eq!(
            fast.accesses, slow.accesses,
            "{name}: walks disagree on the access count"
        );
        assert_eq!(
            fast.levels, slow.levels,
            "{name}: walks disagree on per-level hit/miss counters"
        );
    }
    // Time the gate after the equivalence runs, so both sides are warm.
    let (fast_time, _) = run(COMPILED, stream);
    let (slow_time, _) = run(REFERENCE, stream);
    let speedup = slow_time.as_secs_f64() / fast_time.as_secs_f64().max(1e-9);
    assert!(
        speedup >= 4.0,
        "streaming: compiled walk only {speedup:.1}x faster than reference \
         (reference {slow_time:?}, compiled {fast_time:?})"
    );
}

fn bench(c: &mut Criterion) {
    let stream = streaming_kernel().build().expect("stream builds");
    let tiled = tiled_kernel().build().expect("tiled gemm builds");
    assert_contract(&stream, &tiled);
    let mut group = c.benchmark_group("compiled_walk");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(400));
    for (label, scop) in [("stream", &stream), ("tiled_gemm", &tiled)] {
        for (side, walker) in [("compiled", COMPILED), ("reference", REFERENCE)] {
            group.bench_with_input(BenchmarkId::new(side, label), scop, |b, scop| {
                b.iter(|| run(walker, scop).1.levels[0].misses)
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
