//! Cross-instance calibration reuse on a family sweep vs. cold
//! per-instance exploration.
//!
//! A 64-point TILED_GEMM tile sweep (8 TI × 8 TJ values, one hierarchy ×
//! policy) is served twice in grid order: once **cold** — warm paths
//! disabled, every instance re-deriving its sampling calibration from
//! scratch — and once **warm** — the family tier's `CalibrationCache`
//! donating each instance's detected period, stabilisation depth and
//! audit bias to the next.  At the bench's low sampling rate the cold
//! calibration walk dominates each instance, so the warm sweep's
//! amortisation is what the exploration story promises.
//!
//! Before any timing is recorded the bench **asserts the contract**:
//!
//! * every warm sampled report's per-level miss counts lie within the
//!   error bound the report itself carries, against classic ground truth
//!   computed per point;
//! * the warm sweep beats the cold one by ≥3× wall-clock.
//!
//! Run with `cargo bench --bench family_sweep_reuse`; CI compiles it via
//! `cargo bench --no-run`.

use cache_model::{CacheConfig, MemoryConfig, ReplacementPolicy};
use engine::{Backend, Engine, KernelSpec, SamplingOptions, SimRequest};
use polybench::parametric::TILED_GEMM;
use serve::{ServeConfig, SimService};
use std::time::{Duration, Instant};

/// Problem sizes: thousands of outer tile-loop iterations over a small
/// inner body, so sampling engages on every point (the outer trip count
/// `NI/TI` dwarfs the schedule stride) while one exact point still costs
/// only milliseconds.
const NI: i64 = 4096;
const NJ: i64 = 8;
const NK: i64 = 2;
/// The swept tile grid: 8 × 8 = 64 points.
const TI_VALUES: [i64; 8] = [2, 4, 6, 8, 10, 12, 14, 16];
const TJ_VALUES: [i64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// A sampling rate low enough that the schedule is sparse and the *cold*
/// calibration walk (exact prefix + stabilisation scan + audit) dominates
/// each instance — the cost the warm path amortises away.
fn sampling() -> SamplingOptions {
    SamplingOptions::from_rate(0.02).expect("0.02 is a valid rate")
}

/// 1 KiB / 8 KiB fully-associative two-level hierarchy.  Deliberately
/// tiny and single-set: occupancy saturates within a few outer intervals
/// (so a *seeded* run's exact stabilisation walk is short while a *cold*
/// run still scans in stride-wide steps and double-simulates the audit
/// region), and full associativity keeps streaming behaviour free of
/// set-index cycling — every instance is period-1, so neighbouring
/// calibration priors validate across the whole tile grid.
fn memory() -> MemoryConfig {
    MemoryConfig::new(vec![
        CacheConfig::new(1024, 16, 64, ReplacementPolicy::Lru),
        CacheConfig::new(8 * 1024, 128, 64, ReplacementPolicy::Lru),
    ])
    .expect("two-level hierarchy is compatible")
}

fn request(ti: i64, tj: i64, backend: Backend) -> SimRequest {
    SimRequest::new(
        KernelSpec::parametric(
            "tiled-gemm",
            TILED_GEMM,
            [("NI", NI), ("NJ", NJ), ("NK", NK), ("TI", ti), ("TJ", tj)],
        ),
        memory(),
        backend,
    )
}

/// The 64 tile pairs in grid order (TI outer, TJ inner).
fn grid() -> Vec<(i64, i64)> {
    let mut points = Vec::with_capacity(TI_VALUES.len() * TJ_VALUES.len());
    for &ti in &TI_VALUES {
        for &tj in &TJ_VALUES {
            points.push((ti, tj));
        }
    }
    points
}

fn service(warm_paths: bool) -> SimService {
    SimService::new(ServeConfig {
        workers: 1,
        cache_capacity: 256,
        exact_budget: None,
        warm_paths,
    })
}

/// Submits the sweep in the given order on a fresh service and returns
/// the total wall-clock.
fn sweep(service: &SimService, order: &[(i64, i64)], backend: Backend) -> Duration {
    let start = Instant::now();
    for &(ti, tj) in order {
        service
            .submit(&request(ti, tj, backend))
            .expect("sweep point simulates");
    }
    start.elapsed()
}

/// The correctness gates the timed comparison advertises, asserted before
/// any timing is recorded.
fn assert_contract() {
    let engine = Engine::new();
    let sampled = Backend::Sampled(sampling());

    // Sampled: every warm report stays within its own reported bound of
    // classic ground truth, and the warm state is actually consulted.
    let warm = service(true);
    for &(ti, tj) in &grid() {
        let exact = engine
            .run(&request(ti, tj, Backend::Classic))
            .expect("classic ground truth simulates");
        let (report, _) = warm
            .submit(&request(ti, tj, sampled))
            .expect("warm sampled point simulates");
        let approx = report
            .approx
            .as_ref()
            .expect("sampled reports carry approx");
        for (level, bound) in approx.per_level_error_bound.iter().enumerate() {
            let err = report.result.levels[level]
                .misses
                .abs_diff(exact.result.levels[level].misses);
            assert!(
                err <= *bound,
                "TI={ti} TJ={tj} level {level}: error {err} exceeds reported bound {bound}"
            );
        }
    }
    let stats = warm.stats();
    assert_eq!(
        stats.calibration_hits + stats.calibration_misses,
        64,
        "every sampled point consults the calibration cache"
    );
    assert!(
        stats.calibration_hits >= 63 - TI_VALUES.len() as u64,
        "a warm sweep seeds nearly every point, got {} hits",
        stats.calibration_hits
    );
}

/// The ≥3× wall-clock gate: a warm sweep vs. a cold one, both in grid
/// order.
fn assert_speedup() -> (Duration, Duration) {
    let sampled = Backend::Sampled(sampling());
    let cold = sweep(&service(false), &grid(), sampled);
    let warm = sweep(&service(true), &grid(), sampled);
    let speedup = cold.as_secs_f64() / warm.as_secs_f64().max(1e-9);
    assert!(
        speedup >= 3.0,
        "warm sweep only {speedup:.2}x faster than cold \
         (cold {cold:?}, warm {warm:?})"
    );
    (cold, warm)
}

fn bench(c: &mut criterion::Criterion) {
    if std::env::var_os("FAMILY_SWEEP_DIAG").is_some() {
        let sampled = Backend::Sampled(sampling());
        for (label, warm_paths) in [("cold", false), ("warm", true)] {
            let svc = service(warm_paths);
            let mut prev_fallbacks = 0;
            for &(ti, tj) in &grid() {
                let start = Instant::now();
                svc.submit(&request(ti, tj, sampled)).expect("simulates");
                let fallbacks = svc.stats().calibration_fallbacks;
                println!(
                    "{label} TI={ti} TJ={tj} {:?}{}",
                    start.elapsed(),
                    if fallbacks > prev_fallbacks {
                        " FALLBACK"
                    } else {
                        ""
                    }
                );
                prev_fallbacks = fallbacks;
            }
            let stats = svc.stats();
            println!(
                "{label}: hits {} misses {} fallbacks {}",
                stats.calibration_hits, stats.calibration_misses, stats.calibration_fallbacks
            );
        }
        return;
    }
    assert_contract();
    let (cold, warm) = assert_speedup();
    println!(
        "family_sweep_reuse: cold {cold:?}, warm {warm:?} ({:.2}x)",
        cold.as_secs_f64() / warm.as_secs_f64()
    );

    let mut group = c.benchmark_group("family_sweep_reuse");
    group.sample_size(3);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(400));
    let sampled = Backend::Sampled(sampling());
    group.bench_function("warm_sweep", |b| {
        b.iter(|| sweep(&service(true), &grid(), sampled))
    });
    group.finish();
}

criterion::criterion_group!(benches, bench);
criterion::criterion_main!(benches);
