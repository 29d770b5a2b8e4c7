//! Fig. 10: influence of the replacement policy on the number of misses
//! (the benchmark times the per-policy warping simulations that produce the
//! figure's ratios).

use bench_suite::test_system_l1;
use cache_model::{MemoryConfig, ReplacementPolicy};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use polybench::{Dataset, Kernel};
use warping::WarpingSimulator;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(400));
    for kernel in [Kernel::Doitgen, Kernel::Durbin] {
        let scop = kernel.build(Dataset::Mini).unwrap();
        for policy in ReplacementPolicy::ALL {
            group.bench_with_input(
                BenchmarkId::new(policy.label(), kernel.name()),
                &scop,
                |b, scop| {
                    b.iter(|| {
                        WarpingSimulator::new(MemoryConfig::from(test_system_l1(policy)))
                            .run(scop)
                            .result
                            .levels[0]
                            .misses
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
