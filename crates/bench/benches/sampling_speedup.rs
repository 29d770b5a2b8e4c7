//! Sampling speedup on the non-warpable tail: interval sampling vs.
//! classic simulation on a kernel warping never accelerates.
//!
//! The kernel streams two arrays at incommensurate line rates
//! (`A[i] = A[i] + B[3*i]` — A advances one line per 8 iterations, B
//! three), so the concrete states warping fingerprints never re-digest
//! equal and every access pays full simulation cost.  Exactly the case
//! the ROADMAP's interval-sampling escape hatch targets: behaviour is
//! periodic even though the state never matches.
//!
//! The footprint sweeps 256 KiB → 64 MiB over a small two-level
//! hierarchy (8 KiB L1 / 64 KiB L2), so every size past the first is
//! LLC-saturating and the sampler's exact fill phase is a vanishing
//! share of the run.
//!
//! Before any timing is recorded the bench **asserts the contract**, per
//! size: the sampled per-level miss counts lie within the error bound
//! the report itself carries, the measured error is at most 5% of the
//! classic miss count, and (at the largest size, where the fill phase is
//! amortised) a single sampled run beats a single classic run by ≥5×.
//! (The gate was ≥10× against the per-iteration reference walk; the
//! compiled walk lifted the classic baseline itself by ~2×, so the
//! sampler's *relative* edge shrank while both absolute times dropped.)
//! A bench that lies about accuracy would otherwise happily report a
//! beautiful speedup.
//!
//! Run with `cargo bench --bench sampling_speedup`; CI compiles it via
//! `cargo bench --no-run`.

use cache_model::{CacheConfig, MemoryConfig, ReplacementPolicy};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use engine::{Backend, Engine, KernelSpec, SamplingOptions, SimReport, SimRequest};
use std::time::{Duration, Instant};

/// Footprints swept, in bytes: 256 KiB, 1 MiB, 4 MiB, 16 MiB, 64 MiB.
const FOOTPRINTS: [usize; 5] = [1 << 18, 1 << 20, 1 << 22, 1 << 24, 1 << 26];

/// The sampling rate under test: 1% of accesses, default warm-up.
fn options() -> SamplingOptions {
    SamplingOptions::from_rate(0.01).expect("0.01 is a valid rate")
}

/// A two-level hierarchy small enough that every swept footprint
/// saturates it: 8 KiB 2-way L1, 64 KiB 8-way L2, 64-byte lines.
fn memory() -> MemoryConfig {
    MemoryConfig::new(vec![
        CacheConfig::new(8 * 1024, 2, 64, ReplacementPolicy::Lru),
        CacheConfig::new(64 * 1024, 8, 64, ReplacementPolicy::Plru),
    ])
    .expect("two-level hierarchy is compatible")
}

/// The never-matching kernel at a given total footprint: `A` holds a
/// quarter of the doubles, `B` three quarters (it is read at stride 3).
fn kernel(footprint: usize) -> KernelSpec {
    let n = footprint / 32; // 4 doubles of footprint per iteration of i
    KernelSpec::source(
        format!("stride3/{footprint}"),
        format!(
            "double A[{n}]; double B[{m}]; \
             for (i = 0; i < {n}; i++) A[i] = A[i] + B[3*i];",
            m = 3 * n
        ),
    )
}

fn run(engine: &Engine, footprint: usize, backend: Backend) -> (Duration, SimReport) {
    let request = SimRequest::new(kernel(footprint), memory(), backend);
    let start = Instant::now();
    let report = engine.run(&request).expect("kernel simulates");
    (start.elapsed(), report)
}

/// The accuracy and speedup gates: run classic and sampled once per size
/// and assert the contract the timed comparison is about to advertise.
fn assert_contract(engine: &Engine) {
    for &footprint in &FOOTPRINTS {
        let (exact_time, exact) = run(engine, footprint, Backend::Classic);
        let (sampled_time, sampled) = run(engine, footprint, Backend::Sampled(options()));
        assert_eq!(
            sampled.result.accesses, exact.result.accesses,
            "{footprint}: extrapolation must preserve the access count"
        );
        let approx = sampled
            .approx
            .as_ref()
            .expect("sampled reports carry approx");
        for (level, bound) in approx.per_level_error_bound.iter().enumerate() {
            let err = sampled.result.levels[level]
                .misses
                .abs_diff(exact.result.levels[level].misses);
            assert!(
                err <= *bound,
                "{footprint}: level {level} error {err} exceeds reported bound {bound}"
            );
            assert!(
                err * 20 <= exact.result.levels[level].misses,
                "{footprint}: level {level} error {err} above 5% of {} classic misses",
                exact.result.levels[level].misses
            );
        }
        // The fill phase is simulated exactly, so the speedup only
        // amortises once the footprint dwarfs the LLC; gate at the top
        // of the sweep where the claim is meaningful.
        if footprint == *FOOTPRINTS.last().expect("sweep is non-empty") {
            let speedup = exact_time.as_secs_f64() / sampled_time.as_secs_f64().max(1e-9);
            // ≥5×, not the historical ≥10×: the compiled walk roughly
            // halved the classic denominator (see the module comment).
            assert!(
                speedup >= 5.0,
                "{footprint}: sampled run only {speedup:.1}x faster than classic \
                 (classic {exact_time:?}, sampled {sampled_time:?})"
            );
        }
    }
}

fn bench(c: &mut Criterion) {
    let engine = Engine::new();
    assert_contract(&engine);
    let mut group = c.benchmark_group("sampling_speedup");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(400));
    for &footprint in &FOOTPRINTS {
        group.bench_with_input(
            BenchmarkId::new("sampled", footprint),
            &footprint,
            |b, &fp| {
                b.iter(|| {
                    run(&engine, fp, Backend::Sampled(options()))
                        .1
                        .result
                        .levels[0]
                        .misses
                })
            },
        );
        // Classic at the top sizes is slow; time it where a sample fits.
        if footprint <= 1 << 22 {
            group.bench_with_input(
                BenchmarkId::new("classic", footprint),
                &footprint,
                |b, &fp| b.iter(|| run(&engine, fp, Backend::Classic).1.result.levels[0].misses),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
