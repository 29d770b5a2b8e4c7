//! Cross-crate integration test: warping simulation must be exact — it must
//! report the same access and miss counts as non-warping simulation — on the
//! PolyBench kernels, across replacement policies and cache configurations.
//!
//! This is the end-to-end statement of the paper's correctness claim,
//! exercised through the public `warpsim` API.

use warpsim::prelude::*;

/// The test-system L1 (32 KiB, 8-way, 64-byte lines) with the given policy.
fn l1(policy: ReplacementPolicy) -> CacheConfig {
    CacheConfig::new(32 * 1024, 8, 64, policy)
}

#[test]
fn all_kernels_are_exact_on_the_test_system_l1_with_plru() {
    for kernel in Kernel::ALL {
        let scop = kernel.build(Dataset::Mini).expect("kernel builds");
        let cache = MemoryConfig::from(l1(ReplacementPolicy::Plru));
        let reference = simulate_memory(&scop, &cache);
        let outcome = WarpingSimulator::new(cache).run(&scop);
        assert_eq!(outcome.result, reference, "{kernel}");
        assert_eq!(
            outcome.non_warped_accesses + outcome.warped_accesses,
            reference.accesses,
            "{kernel}"
        );
    }
}

#[test]
fn all_policies_are_exact_on_representative_kernels() {
    let kernels = [
        Kernel::Jacobi1d,
        Kernel::Jacobi2d,
        Kernel::Seidel2d,
        Kernel::Fdtd2d,
        Kernel::Atax,
        Kernel::Bicg,
        Kernel::Mvt,
        Kernel::Gemm,
        Kernel::Trisolv,
        Kernel::Durbin,
        Kernel::Doitgen,
        Kernel::FloydWarshall,
    ];
    for kernel in kernels {
        let scop = kernel.build(Dataset::Mini).expect("kernel builds");
        for policy in ReplacementPolicy::ALL {
            let cache = MemoryConfig::from(l1(policy));
            let reference = simulate_memory(&scop, &cache);
            let outcome = WarpingSimulator::new(cache).run(&scop);
            assert_eq!(outcome.result, reference, "{kernel} under {policy}");
        }
    }
}

#[test]
fn depth_2_hierarchies_are_exact_on_representative_kernels() {
    let kernels = [
        Kernel::Jacobi1d,
        Kernel::Jacobi2d,
        Kernel::Atax,
        Kernel::Trisolv,
    ];
    for kernel in kernels {
        let scop = kernel.build(Dataset::Mini).expect("kernel builds");
        for config in [
            MemoryConfig::test_system(),
            MemoryConfig::polycache_comparison(),
        ] {
            let reference = simulate_memory(&scop, &config);
            let outcome = WarpingSimulator::new(config).run(&scop);
            assert_eq!(outcome.result, reference, "{kernel}");
        }
    }
}

#[test]
fn small_caches_stress_eviction_paths() {
    // Small, low-associativity caches maximise evictions and stress the
    // warp-validity checks.
    let kernels = [
        Kernel::Jacobi1d,
        Kernel::Seidel2d,
        Kernel::Gemver,
        Kernel::Lu,
    ];
    for kernel in kernels {
        let scop = kernel.build(Dataset::Mini).expect("kernel builds");
        for (sets, assoc) in [(4usize, 1usize), (8, 2), (16, 4)] {
            for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo] {
                let cache = MemoryConfig::from(CacheConfig::with_sets(sets, assoc, 64, policy));
                let reference = simulate_memory(&scop, &cache);
                let outcome = WarpingSimulator::new(cache).run(&scop);
                assert_eq!(
                    outcome.result, reference,
                    "{kernel} {sets}x{assoc} {policy}"
                );
            }
        }
    }
}

#[test]
fn analytical_models_agree_with_simulation_on_polybench() {
    for kernel in [
        Kernel::Jacobi1d,
        Kernel::Atax,
        Kernel::Doitgen,
        Kernel::Trisolv,
    ] {
        let scop = kernel.build(Dataset::Mini).expect("kernel builds");
        // HayStack stand-in vs fully-associative LRU simulation.
        let fa = CacheConfig::fully_associative(64, 64, ReplacementPolicy::Lru);
        let reference = simulate_memory(&scop, &MemoryConfig::from(fa));
        let profile = HaystackModel::new(64).analyze(&scop);
        assert_eq!(profile.misses(64), reference.levels[0].misses, "{kernel}");
        // PolyCache stand-in vs hierarchy simulation.
        let hierarchy = MemoryConfig::polycache_comparison();
        let sim = simulate_memory(&scop, &hierarchy);
        let poly = PolyCacheModel::new(&hierarchy).unwrap().analyze(&scop);
        assert_eq!(poly[0].misses, sim.levels[0].misses, "{kernel}");
        assert_eq!(poly[1].misses, sim.levels[1].misses, "{kernel}");
    }
}

#[test]
fn stencils_warp_the_vast_majority_of_accesses_at_scale() {
    // The paper's headline claim: for stencils, warping skips almost all
    // accesses once the problem is large relative to the cache.
    let scop = Kernel::Jacobi1d
        .build(Dataset::Medium)
        .expect("kernel builds");
    let cache = l1(ReplacementPolicy::Plru);
    let outcome = WarpingSimulator::new(MemoryConfig::from(cache)).run(&scop);
    assert!(
        outcome.non_warped_share() < 0.35,
        "non-warped share too high: {}",
        outcome.non_warped_share()
    );
    assert!(outcome.warps > 0);
}

#[test]
fn hardware_reference_pipeline_works_on_kernel_sources() {
    let reference = HardwareReference::default();
    for kernel in [Kernel::Atax, Kernel::Doitgen] {
        let measured = reference
            .measure_source(&kernel.source(Dataset::Mini))
            .expect("kernel sources are measurable");
        assert!(measured.accesses > 0);
        assert!(measured.measured_misses > 0);
    }
}
