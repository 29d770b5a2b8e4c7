//! A loop whose iterator would step past `i64::MAX` ends there: every
//! backend answers the two-iteration kernel below with the counts of
//! classic simulation instead of wrapping around and running forever.

use cache_model::{CacheConfig, MemoryConfig, ReplacementPolicy};
use engine::{Backend, Engine, KernelSpec, SamplingOptions, SimRequest};

/// Two iterations (`i = 0` and `i = 2^62`); the third step overflows.
const KERNEL: &str = "double A[1];\n\
    for (i = 0; i < 9223372036854775807; i += 4611686018427387904) A[0] = A[0];";

fn l1() -> CacheConfig {
    CacheConfig::with_sets(4, 2, 64, ReplacementPolicy::Lru)
}

fn run(memory: &MemoryConfig, backend: Backend) -> engine::SimReport {
    let request = SimRequest::new(
        KernelSpec::source("overflow", KERNEL),
        memory.clone(),
        backend,
    );
    Engine::new()
        .with_threads(1)
        .run(&request)
        .unwrap_or_else(|e| panic!("{}: {e}", request.backend))
}

#[test]
fn every_backend_stops_at_the_end_of_the_i64_range() {
    let single = MemoryConfig::from(l1());
    let classic = run(&single, Backend::Classic);
    assert_eq!(classic.result.accesses, 4, "two reads and two writes");
    assert_eq!(classic.result.levels[0].misses, 1);
    for backend in [
        Backend::warping(),
        Backend::Trace,
        Backend::Haystack,
        Backend::Sampled(SamplingOptions::DEFAULT),
    ] {
        let report = run(&single, backend);
        assert_eq!(report.result, classic.result, "{}", report.backend);
    }

    let two_level = MemoryConfig::new(vec![
        l1(),
        CacheConfig::with_sets(16, 4, 64, ReplacementPolicy::Lru),
    ])
    .expect("valid hierarchy");
    let classic = run(&two_level, Backend::Classic);
    let polycache = run(&two_level, Backend::PolyCache);
    assert_eq!(polycache.result, classic.result, "polycache");
}
