//! Exploration-sweep throughput: parse-once parametric families vs
//! per-instance re-parsing.
//!
//! An exploration grid hammers one kernel template with many bindings.  The
//! parametric path parses the template once ([`scop::ParametricScop`]'s
//! process-wide memo) and addresses every instance through the serving
//! layer's family tier, whose `(config, bindings)` memo skips substitution
//! and canonicalisation entirely on repeat submissions.  The baseline a
//! non-parametric client is stuck with renders a constant source per grid
//! point and re-parses it on every submission just to compute the canonical
//! address.
//!
//! * `speedup_gate` — times one warm 64-point sweep both ways with
//!   `Instant`, prints the ratio and asserts the acceptance bar: parametric
//!   ≥ 5× the re-parse baseline, with bit-identical reports (the constant
//!   spelling must be answered from the cache entry the parametric spelling
//!   created).
//! * `sweep/parametric_warm` and `sweep/reparse_baseline` — the same two
//!   paths under criterion for tracked numbers.
//!
//! Run with `cargo bench --bench explore_sweep`; CI compiles it via
//! `cargo bench --no-run` (the explore smoke job covers the wire-level
//! equivalence on every push).

use cache_model::{CacheConfig, MemoryConfig, ReplacementPolicy};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use engine::{Backend, KernelSpec, SimRequest};
use polybench::parametric::{tiled_gemm, TILED_GEMM};
use serve::{ServeConfig, Served, SimService};
use std::time::{Duration, Instant};

/// Problem extents: small enough that 64 cold simulations stay cheap, the
/// sweep cost is dominated by addressing, and the contrast is honest.
const NI: i64 = 16;
const NJ: i64 = 16;
const NK: i64 = 16;

fn memory() -> MemoryConfig {
    MemoryConfig::single(CacheConfig::new(32 * 1024, 8, 64, ReplacementPolicy::Lru))
}

/// The 64-point tile grid: TI × TJ ∈ {1..8}².
fn tile_grid() -> Vec<(i64, i64)> {
    let mut grid = Vec::with_capacity(64);
    for ti in 1..=8 {
        for tj in 1..=8 {
            grid.push((ti, tj));
        }
    }
    grid
}

/// One grid point, addressed through the family tier: the template text is
/// shared by every point, so the service parses it once and memoises each
/// binding's instance address.
fn parametric_request(ti: i64, tj: i64) -> SimRequest {
    SimRequest::new(
        KernelSpec::parametric(
            "tiled-gemm",
            TILED_GEMM,
            [
                ("NI".to_string(), NI),
                ("NJ".to_string(), NJ),
                ("NK".to_string(), NK),
                ("TI".to_string(), ti),
                ("TJ".to_string(), tj),
            ],
        ),
        memory(),
        Backend::warping(),
    )
}

/// The same grid point as a constant-source client submits it: a freshly
/// rendered source that must be re-parsed per submission to find its
/// canonical address (which collides with the parametric spelling's).
fn reparse_request(ti: i64, tj: i64) -> SimRequest {
    SimRequest::new(
        KernelSpec::source(
            format!("tiled-gemm-{ti}x{tj}"),
            tiled_gemm(NI as u64, NJ as u64, NK as u64, ti as u64, tj as u64),
        ),
        memory(),
        Backend::warping(),
    )
}

/// A service primed with every grid point, so both measured paths are pure
/// warm traffic: addressing + cache lookup, no simulation.
fn warm_service(grid: &[(i64, i64)]) -> SimService {
    let service = SimService::new(ServeConfig {
        workers: 1,
        cache_capacity: 128,
        exact_budget: None,
        ..ServeConfig::default()
    });
    service
        .register_family("tiled-gemm", TILED_GEMM)
        .expect("template registers");
    for &(ti, tj) in grid {
        let (_, served) = service
            .submit(&parametric_request(ti, tj))
            .expect("priming run succeeds");
        assert_eq!(served, Served::Simulated, "priming must be cold");
    }
    service
}

/// Times `rounds` warm sweeps of the whole grid through `submit`.
fn time_sweep(
    service: &SimService,
    grid: &[(i64, i64)],
    rounds: usize,
    request: impl Fn(i64, i64) -> SimRequest,
) -> Duration {
    let start = Instant::now();
    for _ in 0..rounds {
        for &(ti, tj) in grid {
            let (report, served) = service
                .submit(&request(ti, tj))
                .expect("warm sweep point served");
            assert_eq!(served, Served::CacheHit, "warm sweep must not simulate");
            black_box(report);
        }
    }
    start.elapsed()
}

/// The acceptance gate: bit-identical reports across the two spellings, and
/// the parametric path ≥ 5× the re-parse baseline on a warm 64-point sweep.
fn speedup_gate(criterion: &mut Criterion) {
    // Criterion only drives the other benches; the gate is plain `Instant`
    // so it also fires under `--test`-style single runs.
    let _ = criterion;
    let grid = tile_grid();
    assert!(grid.len() >= 64, "acceptance demands a ≥64-point sweep");
    let service = warm_service(&grid);

    // Every constant spelling must be answered from the cache entry its
    // parametric twin created, with the exact same bytes.
    for &(ti, tj) in &grid {
        let (parametric, served) = service
            .submit(&parametric_request(ti, tj))
            .expect("parametric point served");
        assert_eq!(served, Served::CacheHit);
        let (constant, served) = service
            .submit(&reparse_request(ti, tj))
            .expect("constant point served");
        assert_eq!(
            served,
            Served::CacheHit,
            "TI={ti} TJ={tj}: the constant spelling missed the family's cache entry"
        );
        assert!(
            parametric.same_outcome(&constant),
            "TI={ti} TJ={tj}: reports diverged between spellings"
        );
    }

    let rounds = 20;
    let parametric = time_sweep(&service, &grid, rounds, parametric_request);
    let baseline = time_sweep(&service, &grid, rounds, reparse_request);
    let speedup = baseline.as_secs_f64() / parametric.as_secs_f64();
    println!(
        "explore_sweep gate: {} points × {rounds} rounds — parametric {:.2?}, \
         re-parse baseline {:.2?}, speedup {speedup:.1}×",
        grid.len(),
        parametric,
        baseline,
    );
    assert!(
        speedup >= 5.0,
        "parametric sweep speedup {speedup:.1}× is below the 5× acceptance bar"
    );
}

fn bench_sweep(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("explore_sweep");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    let grid = tile_grid();
    let service = warm_service(&grid);

    group.bench_function("sweep/parametric_warm", |b| {
        b.iter(|| time_sweep(&service, &grid, 1, parametric_request))
    });
    group.bench_function("sweep/reparse_baseline", |b| {
        b.iter(|| time_sweep(&service, &grid, 1, reparse_request))
    });

    group.finish();
}

criterion_group!(explore_sweep, speedup_gate, bench_sweep);
criterion_main!(explore_sweep);
