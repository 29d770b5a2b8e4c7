//! Fig. 8: warping simulation vs the HayStack-style analytical model on a
//! fully-associative LRU cache (both including SCoP extraction).

use analytical::HaystackModel;
use bench_suite::fully_associative_l1;
use cache_model::MemoryConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use polybench::{Dataset, Kernel};
use warping::WarpingSimulator;

fn bench(c: &mut Criterion) {
    let cache = fully_associative_l1();
    let mut group = c.benchmark_group("fig8");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(400));
    for kernel in [Kernel::Jacobi1d, Kernel::Seidel2d, Kernel::Atax] {
        group.bench_with_input(
            BenchmarkId::new("warping", kernel.name()),
            &kernel,
            |b, k| {
                b.iter(|| {
                    let scop = k.build(Dataset::Mini).unwrap();
                    WarpingSimulator::new(MemoryConfig::from(cache.clone()))
                        .run(&scop)
                        .result
                        .levels[0]
                        .misses
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("haystack", kernel.name()),
            &kernel,
            |b, k| {
                b.iter(|| {
                    let scop = k.build(Dataset::Mini).unwrap();
                    HaystackModel::new(64).analyze(&scop).misses(512)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
