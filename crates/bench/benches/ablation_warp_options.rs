//! Ablation: how the match-attempt policy (eager vs backed-off) affects
//! warping simulation time.  Eager matching maximises warp opportunities but
//! pays key-construction cost on every iteration; the default backs off on
//! loops that do not warp.

use bench_suite::test_system_l1;
use cache_model::{MemoryConfig, ReplacementPolicy};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use polybench::{Dataset, Kernel};
use warping::{WarpingOptions, WarpingSimulator};

fn bench(c: &mut Criterion) {
    let cache = test_system_l1(ReplacementPolicy::Plru);
    let mut group = c.benchmark_group("ablation_warp_options");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(400));
    let variants = [
        ("default", WarpingOptions::default()),
        (
            "eager",
            WarpingOptions {
                eager_attempts: u64::MAX,
                backoff_interval: 1,
                max_map_entries: 1 << 16,
                min_trip_count: 0,
                max_fruitless_attempts: u64::MAX,
            },
        ),
        (
            "lazy",
            WarpingOptions {
                eager_attempts: 0,
                backoff_interval: 64,
                max_map_entries: 1 << 12,
                min_trip_count: 128,
                max_fruitless_attempts: 256,
            },
        ),
    ];
    for kernel in [Kernel::Jacobi1d, Kernel::Gemm] {
        let scop = kernel.build(Dataset::Mini).unwrap();
        for (name, options) in variants {
            group.bench_with_input(BenchmarkId::new(name, kernel.name()), &scop, |b, scop| {
                b.iter(|| {
                    WarpingSimulator::new(MemoryConfig::from(cache.clone()))
                        .with_options(options)
                        .run(scop)
                        .result
                        .levels[0]
                        .misses
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
