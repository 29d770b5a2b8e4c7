//! Serving-layer throughput: cold vs warm cache, 1 vs N workers.
//!
//! The serving layer's value proposition is that repeated and concurrent
//! traffic costs far less than `Engine::run` per request:
//!
//! * `warm_vs_cold` — one request submitted to a fresh service (cold: cache
//!   miss, full simulation) vs the same request resubmitted (warm: a
//!   shard-local read lock and a report clone).  The acceptance bar for
//!   this PR is warm ≥ 10× cold; in practice it is orders of magnitude.
//! * `batch_workers` — a duplicate-heavy 32-request batch through
//!   `SimService::run_batch` (the service's shared-FIFO worker pool) with
//!   1 worker vs `available_parallelism` workers, against the
//!   `Engine::run_batch` baseline (no cache, no dedup, scoped fan-out).
//!
//! Run with `cargo bench --bench serve_throughput`; CI compiles it via
//! `cargo bench --no-run`.

use cache_model::{CacheConfig, MemoryConfig, ReplacementPolicy};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use engine::{Backend, Engine, KernelSpec, SimRequest};
use serve::{ServeConfig, SimService};
use std::sync::Arc;
use std::time::Duration;

fn memory() -> MemoryConfig {
    MemoryConfig::single(CacheConfig::new(32 * 1024, 8, 64, ReplacementPolicy::Lru))
}

/// A small but non-trivial kernel (a stencil with reuse, so warping has
/// real work on a cold miss).
fn kernel(tag: usize) -> KernelSpec {
    KernelSpec::source(
        format!("stencil-{tag}"),
        format!(
            "double A[{n}]; double B[{n}];\n\
             for (t = 0; t < 4; t++)\n\
               for (i = 1; i < {m}; i++)\n\
                 B[i] = A[i - 1] + A[i] + A[i + 1];",
            n = 256 + tag,
            m = 255 + tag,
        ),
    )
}

fn request(tag: usize) -> SimRequest {
    SimRequest::new(kernel(tag), memory(), Backend::warping())
}

/// A duplicate-heavy batch: 32 requests over 4 distinct kernels, the shape
/// the cache + dedup layers are built for.
fn duplicate_heavy_batch() -> Vec<SimRequest> {
    (0..32).map(|i| request(i % 4)).collect()
}

fn bench_warm_vs_cold(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("serve_throughput");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));

    // Cold: every iteration builds a fresh service, so the submission is a
    // compulsory miss that runs the simulation.
    group.bench_function("warm_vs_cold/cold", |b| {
        let request = request(0);
        b.iter(|| {
            let service = SimService::new(ServeConfig {
                workers: 1,
                cache_capacity: 16,
                exact_budget: None,
                ..ServeConfig::default()
            });
            black_box(service.submit(&request).expect("request served"))
        })
    });

    // Warm: one service, primed once; every iteration is a cache hit.
    group.bench_function("warm_vs_cold/warm", |b| {
        let service = SimService::new(ServeConfig {
            workers: 1,
            cache_capacity: 16,
            exact_budget: None,
            ..ServeConfig::default()
        });
        let request = request(0);
        service.submit(&request).expect("priming run succeeds");
        b.iter(|| black_box(service.submit(&request).expect("request served")))
    });

    group.finish();
}

fn bench_batch_workers(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("serve_throughput");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for workers in [1, cores] {
        group.bench_with_input(
            BenchmarkId::new("batch/serve", format!("{workers}w")),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    // A fresh service per iteration: the batch itself must
                    // exercise dedup + cache, not a pre-warmed store.
                    let service = Arc::new(SimService::new(ServeConfig {
                        workers,
                        cache_capacity: 64,
                        exact_budget: None,
                        ..ServeConfig::default()
                    }));
                    black_box(service.run_batch(&duplicate_heavy_batch()))
                })
            },
        );
    }

    // Baseline: the engine's scoped fan-out with neither cache nor dedup.
    group.bench_function("batch/engine_baseline", |b| {
        let engine = Engine::new();
        b.iter(|| black_box(engine.run_batch(&duplicate_heavy_batch())))
    });

    group.finish();
}

criterion_group!(serve_throughput, bench_warm_vs_cold, bench_batch_workers);
criterion_main!(serve_throughput);
