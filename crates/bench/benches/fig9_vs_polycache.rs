//! Fig. 9: two-level warping simulation vs the PolyCache-style model.

use analytical::PolyCacheModel;
use cache_model::MemoryConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use polybench::{Dataset, Kernel};
use warping::WarpingSimulator;

fn bench(c: &mut Criterion) {
    let hierarchy = MemoryConfig::polycache_comparison();
    let mut group = c.benchmark_group("fig9");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(400));
    for kernel in [Kernel::Jacobi1d, Kernel::Mvt] {
        group.bench_with_input(
            BenchmarkId::new("warping-l1l2", kernel.name()),
            &kernel,
            |b, k| {
                b.iter(|| {
                    let scop = k.build(Dataset::Mini).unwrap();
                    WarpingSimulator::new(hierarchy.clone())
                        .run(&scop)
                        .result
                        .accesses
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("polycache", kernel.name()),
            &kernel,
            |b, k| {
                b.iter(|| {
                    let scop = k.build(Dataset::Mini).unwrap();
                    PolyCacheModel::new(&hierarchy)
                        .expect("an LRU hierarchy")
                        .analyze(&scop)[1]
                        .misses
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
