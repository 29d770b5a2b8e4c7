//! Fig. 7: how warping and non-warping simulation times scale with the
//! problem size (two dataset sizes per kernel).

use bench_suite::{run_nonwarping, run_warping, test_system_l1};
use cache_model::ReplacementPolicy;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use polybench::{Dataset, Kernel};

fn bench(c: &mut Criterion) {
    let cache = test_system_l1(ReplacementPolicy::Plru);
    let mut group = c.benchmark_group("fig7");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(400));
    for kernel in [Kernel::Jacobi1d, Kernel::Gemm] {
        for dataset in [Dataset::Mini, Dataset::Small] {
            let scop = kernel.build(dataset).unwrap();
            group.bench_with_input(
                BenchmarkId::new(format!("warping/{}", kernel.name()), dataset.name()),
                &scop,
                |b, scop| b.iter(|| run_warping(scop, &cache).1.result.levels[0].misses),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("nonwarping/{}", kernel.name()), dataset.name()),
                &scop,
                |b, scop| b.iter(|| run_nonwarping(scop, &cache).1.levels[0].misses),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
