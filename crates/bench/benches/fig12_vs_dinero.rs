//! Fig. 12: non-warping simulation vs the Dinero-IV-style trace-driven
//! simulator (trace generation + per-access simulation).

use bench_suite::test_system_l1;
use cache_model::{MemoryConfig, ReplacementPolicy};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use polybench::{Dataset, Kernel};
use simulate::simulate_memory;
use trace_sim::dinero_style_simulation;

fn bench(c: &mut Criterion) {
    let cache = test_system_l1(ReplacementPolicy::Lru);
    let memory = MemoryConfig::from(cache.clone());
    let mut group = c.benchmark_group("fig12");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(400));
    for kernel in [Kernel::Cholesky, Kernel::Ludcmp] {
        let scop = kernel.build(Dataset::Mini).unwrap();
        group.bench_with_input(
            BenchmarkId::new("dinero", kernel.name()),
            &scop,
            |b, scop| b.iter(|| dinero_style_simulation(scop, &cache).1.misses),
        );
        group.bench_with_input(
            BenchmarkId::new("nonwarping", kernel.name()),
            &scop,
            |b, scop| b.iter(|| simulate_memory(scop, &memory).levels[0].misses),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
