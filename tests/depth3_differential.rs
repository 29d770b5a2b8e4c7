//! Differential test of the depth-3 simulation stack: warping simulation
//! must reproduce classic per-access simulation bit for bit on L1/L2/L3
//! hierarchies, across all four replacement policies and several PolyBench
//! kernels — the acceptance gate of the depth-N core.

use warpsim::prelude::*;

/// The kernels exercised (a stencil, a linear-algebra kernel and a
/// triangular solver — the same spread as the engine differential test).
const KERNELS: [Kernel; 3] = [Kernel::Jacobi1d, Kernel::Atax, Kernel::Trisolv];

/// A small L1/L2/L3 hierarchy (kept small so the canonical keys of the
/// warping simulator stay cheap at MINI problem sizes).
fn three_level(policy: ReplacementPolicy) -> MemoryConfig {
    MemoryConfig::new(vec![
        CacheConfig::new(1024, 4, 64, policy),
        CacheConfig::new(8 * 1024, 8, 64, policy),
        CacheConfig::new(64 * 1024, 16, 64, policy),
    ])
    .unwrap()
}

#[test]
fn warping_equals_classic_on_three_levels() {
    let engine = Engine::new();
    for kernel in KERNELS {
        let scop = kernel.build(Dataset::Mini).expect("kernel builds");
        let spec = KernelSpec::prebuilt(kernel.name(), scop);
        for policy in ReplacementPolicy::ALL {
            let memory = three_level(policy);
            let classic = engine
                .run(&SimRequest::new(
                    spec.clone(),
                    memory.clone(),
                    Backend::Classic,
                ))
                .expect("classic depth-3 request");
            let warped = engine
                .run(&SimRequest::new(spec.clone(), memory, Backend::warping()))
                .expect("warping depth-3 request");
            assert_eq!(
                classic.result, warped.result,
                "{kernel:?} {policy}: warping must be bit-exact at depth 3"
            );
            assert_eq!(classic.result.depth(), 3, "{kernel:?} {policy}");
            assert_eq!(classic.result.levels.len(), 3, "{kernel:?} {policy}");
        }
    }
}

#[test]
fn fingerprint_filter_is_stat_neutral_at_depth_3() {
    // The two-phase match pipeline must produce per-level statistics
    // bit-identical to classic simulation, and it builds an exact key only
    // on a fingerprint hit (every loop of these kernels is shallower than
    // the fingerprints' tracked range).
    let engine = Engine::new();
    for kernel in KERNELS {
        let scop = kernel.build(Dataset::Mini).expect("kernel builds");
        let spec = KernelSpec::prebuilt(kernel.name(), scop);
        for policy in ReplacementPolicy::ALL {
            let memory = three_level(policy);
            let filtered = engine
                .run(&SimRequest::new(
                    spec.clone(),
                    memory.clone(),
                    Backend::warping(),
                ))
                .expect("filtered depth-3 request");
            let classic = engine
                .run(&SimRequest::new(spec.clone(), memory, Backend::Classic))
                .expect("classic depth-3 request");
            assert_eq!(
                filtered.result, classic.result,
                "{kernel:?} {policy}: the fingerprint filter must not change stats"
            );
            let stats = filtered.warping.expect("warping stats");
            assert_eq!(
                stats.exact_key_builds, stats.fingerprint_hits,
                "{kernel:?} {policy}: keys are built on fingerprint hits only"
            );
            assert!(
                stats.exact_key_builds <= stats.match_attempts,
                "{kernel:?} {policy}"
            );
        }
    }
}

#[test]
fn depth_3_levels_chain_consistently() {
    // Structural invariants of an inclusive-forwarding hierarchy: level
    // i + 1 sees exactly the misses of level i.
    let engine = Engine::new();
    for kernel in KERNELS {
        let spec = KernelSpec::polybench(kernel, Dataset::Mini);
        let report = engine
            .run(&SimRequest::new(
                spec,
                three_level(ReplacementPolicy::Lru),
                Backend::Classic,
            ))
            .unwrap();
        let levels = &report.result.levels;
        assert_eq!(levels[0].accesses, report.result.accesses);
        assert_eq!(levels[1].accesses, levels[0].misses, "{kernel:?}");
        assert_eq!(levels[2].accesses, levels[1].misses, "{kernel:?}");
        assert_eq!(report.result.last_level_misses(), levels[2].misses);
    }
}

#[test]
fn trace_replay_matches_classic_at_depth_3() {
    let engine = Engine::new();
    for kernel in KERNELS {
        let spec = KernelSpec::polybench(kernel, Dataset::Mini);
        let memory = three_level(ReplacementPolicy::Plru);
        let classic = engine
            .run(&SimRequest::new(
                spec.clone(),
                memory.clone(),
                Backend::Classic,
            ))
            .unwrap();
        let trace = engine
            .run(&SimRequest::new(spec, memory, Backend::Trace))
            .unwrap();
        assert_eq!(classic.result, trace.result, "{kernel:?}");
    }
}
