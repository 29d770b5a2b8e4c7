//! Differential test of the `Engine` facade against the per-backend entry
//! points: routing a request through `Engine::run` must not change a single
//! counter.
//!
//! * `Backend::Classic` must reproduce `simulate_memory` byte for byte, and
//! * `Backend::Warping` must reproduce `WarpingSimulator::new(..).run` byte
//!   for byte (including the warp counters),
//!
//! across all four replacement policies, one- and two-level memory systems
//! and several PolyBench kernels.  A batched grid must return exactly the
//! reports of sequential `run` calls.

use warpsim::prelude::*;

/// The kernels exercised by the differential grid (a stencil, a
/// linear-algebra kernel and a triangular solver).
const KERNELS: [Kernel; 3] = [Kernel::Jacobi1d, Kernel::Atax, Kernel::Trisolv];

fn l1(policy: ReplacementPolicy) -> CacheConfig {
    CacheConfig::new(32 * 1024, 8, 64, policy)
}

fn hierarchy(policy: ReplacementPolicy) -> MemoryConfig {
    MemoryConfig::new(vec![
        l1(policy),
        CacheConfig::new(256 * 1024, 8, 64, policy),
    ])
    .unwrap()
}

#[test]
fn classic_backend_equals_legacy_simulation() {
    let engine = Engine::new();
    for kernel in KERNELS {
        let scop = kernel.build(Dataset::Mini).expect("kernel builds");
        let spec = KernelSpec::prebuilt(kernel.name(), scop.clone());
        for policy in ReplacementPolicy::ALL {
            let single = engine
                .run(&SimRequest::new(spec.clone(), l1(policy), Backend::Classic))
                .expect("classic single-level request");
            assert_eq!(
                single.result,
                simulate_memory(&scop, &MemoryConfig::from(l1(policy))),
                "{kernel:?} {policy}"
            );

            let two_level = engine
                .run(&SimRequest::new(
                    spec.clone(),
                    hierarchy(policy),
                    Backend::Classic,
                ))
                .expect("classic two-level request");
            assert_eq!(
                two_level.result,
                simulate_memory(&scop, &hierarchy(policy)),
                "{kernel:?} {policy}"
            );
        }
    }
}

#[test]
fn warping_backend_equals_legacy_simulator() {
    let engine = Engine::new();
    for kernel in KERNELS {
        let scop = kernel.build(Dataset::Mini).expect("kernel builds");
        let spec = KernelSpec::prebuilt(kernel.name(), scop.clone());
        for policy in ReplacementPolicy::ALL {
            let single = engine
                .run(&SimRequest::new(
                    spec.clone(),
                    l1(policy),
                    Backend::warping(),
                ))
                .expect("warping single-level request");
            let legacy = WarpingSimulator::new(MemoryConfig::from(l1(policy))).run(&scop);
            assert_eq!(single.result, legacy.result, "{kernel:?} {policy}");
            let stats = single.warping.expect("warp stats");
            assert_eq!(stats.warps, legacy.warps, "{kernel:?} {policy}");
            assert_eq!(stats.warped_accesses, legacy.warped_accesses);
            assert_eq!(stats.non_warped_accesses, legacy.non_warped_accesses);

            let two_level = engine
                .run(&SimRequest::new(
                    spec.clone(),
                    hierarchy(policy),
                    Backend::warping(),
                ))
                .expect("warping two-level request");
            let legacy = WarpingSimulator::new(hierarchy(policy)).run(&scop);
            assert_eq!(two_level.result, legacy.result, "{kernel:?} {policy}");
        }
    }
}

#[test]
fn engine_backends_agree_with_each_other() {
    // Classic and warping must agree through the facade exactly as the
    // underlying simulators do directly.
    let engine = Engine::new();
    for kernel in KERNELS {
        let spec = KernelSpec::polybench(kernel, Dataset::Mini);
        for policy in ReplacementPolicy::ALL {
            let classic = engine
                .run(&SimRequest::new(spec.clone(), l1(policy), Backend::Classic))
                .unwrap();
            let warped = engine
                .run(&SimRequest::new(
                    spec.clone(),
                    l1(policy),
                    Backend::warping(),
                ))
                .unwrap();
            assert_eq!(classic.result, warped.result, "{kernel:?} {policy}");
        }
    }
}

#[test]
fn batched_grid_equals_sequential_runs() {
    let engine = Engine::new().with_threads(4);
    let kernels: Vec<KernelSpec> = KERNELS
        .iter()
        .map(|&kernel| KernelSpec::polybench(kernel, Dataset::Mini))
        .collect();
    let memories = [
        MemoryConfig::from(l1(ReplacementPolicy::Plru)),
        hierarchy(ReplacementPolicy::Lru),
    ];
    let backends = [Backend::Classic, Backend::warping()];
    let grid = SimRequest::grid(&kernels, &memories, &backends);
    assert!(grid.len() >= 12, "the grid covers at least 12 requests");

    let batched = engine.run_batch(&grid);
    assert_eq!(batched.len(), grid.len());
    for (request, batched) in grid.iter().zip(&batched) {
        let sequential = engine.run(request).expect("sequential run succeeds");
        let batched = batched.as_ref().expect("batched run succeeds");
        assert!(
            batched.same_outcome(&sequential),
            "batched and sequential reports diverge for {}/{}",
            request.kernel.name(),
            request.backend
        );
    }
}
