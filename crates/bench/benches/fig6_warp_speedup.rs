//! Fig. 6: warping vs non-warping simulation time on the test system's L1,
//! for all four replacement policies, on representative kernels.

use bench_suite::{run_nonwarping, run_warping, test_system_l1};
use cache_model::ReplacementPolicy;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use polybench::{Dataset, Kernel};

fn bench(c: &mut Criterion) {
    let kernels = [
        Kernel::Jacobi1d,
        Kernel::Jacobi2d,
        Kernel::Trisolv,
        Kernel::Bicg,
    ];
    let mut group = c.benchmark_group("fig6");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(400));
    for kernel in kernels {
        let scop = kernel.build(Dataset::Mini).unwrap();
        for policy in ReplacementPolicy::ALL {
            let cache = test_system_l1(policy);
            group.bench_with_input(
                BenchmarkId::new(format!("warping/{policy}"), kernel.name()),
                &scop,
                |b, scop| b.iter(|| run_warping(scop, &cache).1.result.levels[0].misses),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("nonwarping/{policy}"), kernel.name()),
                &scop,
                |b, scop| b.iter(|| run_nonwarping(scop, &cache).1.levels[0].misses),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
