//! Differential tests of relative-label (epoch) addressing.
//!
//! The scenario under test is the one the ROADMAP called out as the reason
//! the fig13 bench had to be designed around a gap: a kernel whose working
//! set fits in the L1 leaves the outer levels of a big hierarchy *frozen* —
//! filled during warm-up, never touched again.  Under current-iterator
//! label normalisation those frozen labels drift away from every later
//! match attempt and physically identical states never compare equal, so
//! warping degenerates to explicit simulation.  Epoch-relative keys fix
//! that; these tests pin down both directions:
//!
//! 1. **Exactness** — warping with epoch-relative keys equals classic
//!    simulation bit for bit (per-level hit/miss counts) on randomly
//!    generated L1-resident kernels over depth-2/3 hierarchies and all four
//!    replacement policies.
//! 2. **Effectiveness** — a regression kernel that previously never
//!    matched (tiny working set, deep hierarchy, inner loop too short to
//!    amortise warping on its own) now warps at the time loop, with the
//!    frozen outer levels matched through `stale_label_renorms`.

use cache_model::{CacheConfig, MemoryConfig, ReplacementPolicy};
use proptest::prelude::*;
use scop::parse_scop;
use simulate::simulate_memory;
use warping::WarpingSimulator;

/// An L1-resident kernel: an outer time loop re-sweeping arrays that fit
/// comfortably into the innermost cache level.
fn time_sweep_source(arrays: usize, n: i64, trips: i64, stride: i64, stencil: bool) -> String {
    let mut decls = String::new();
    for a in 0..arrays {
        decls.push_str(&format!("double A{a}[{size}]; ", size = n + 1));
    }
    let mut body = String::new();
    for a in 0..arrays {
        if stencil && n > stride {
            body.push_str(&format!("A{a}[i-{stride}] = A{a}[i-{stride}] + A{a}[i]; "));
        } else {
            body.push_str(&format!("A{a}[i] = A{a}[i]; "));
        }
    }
    let lo = if stencil { stride } else { 0 };
    format!(
        "{decls}\n\
         for (t = 0; t < {trips}; t++)\n\
           for (i = {lo}; i < {n}; i += {stride}) {{ {body} }}"
    )
}

/// A hierarchy whose L1 holds the whole working set and whose outer levels
/// are orders of magnitude larger.
fn memory(depth: usize, policy: ReplacementPolicy, outer_kib: u64) -> MemoryConfig {
    let mut levels = vec![CacheConfig::new(1024, 4, 64, policy)];
    if depth >= 3 {
        levels.push(CacheConfig::new(16 * 1024, 8, 64, policy));
    }
    levels.push(CacheConfig::new(outer_kib * 1024, 16, 64, policy));
    MemoryConfig::new(levels).expect("valid hierarchy")
}

#[test]
fn l1_resident_kernel_warps_over_a_64_mib_outer_level() {
    // 16 doubles re-swept 2000 times: the inner loop is too short to warp
    // on its own (trip count below `min_trip_count`), so everything hinges
    // on matching the time loop — which requires the frozen L2/L3 labels
    // to renormalise.
    let scop = parse_scop(&time_sweep_source(1, 16, 2000, 1, false)).unwrap();
    let memory = memory(3, ReplacementPolicy::Lru, 64 * 1024);
    let reference = simulate_memory(&scop, &memory);

    let renormalised = WarpingSimulator::new(memory).run(&scop);
    assert_eq!(
        renormalised.result, reference,
        "warping must stay bit-exact while warping the time loop"
    );
    assert!(
        renormalised.warps >= 1,
        "the time loop must warp over the 64 MiB outer level"
    );
    assert!(
        renormalised.stale_label_renorms >= 1,
        "the frozen outer levels must be matched via epoch renormalisation"
    );
    assert!(
        renormalised.warped_accesses > reference.accesses / 2,
        "the bulk of the re-sweeps must be skipped ({} of {})",
        renormalised.warped_accesses,
        reference.accesses
    );
}

#[test]
fn l1_resident_kernel_is_exact_for_all_policies_at_depth_2_and_3() {
    let scop = parse_scop(&time_sweep_source(2, 24, 600, 1, true)).unwrap();
    for policy in ReplacementPolicy::ALL {
        for depth in [2, 3] {
            let memory = memory(depth, policy, 4 * 1024);
            let reference = simulate_memory(&scop, &memory);
            let outcome = WarpingSimulator::new(memory).run(&scop);
            assert_eq!(outcome.result, reference, "{policy} depth {depth}");
        }
    }
}

fn arb_policy() -> impl Strategy<Value = ReplacementPolicy> {
    prop::sample::select(ReplacementPolicy::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random L1-resident kernels over depth-2/3 hierarchies: warping equals
    /// classic simulation bit for bit, per level.
    #[test]
    fn warping_equals_classic_on_l1_resident_kernels(
        arrays in 1usize..=2,
        n in 8i64..48,
        trips in 40i64..220,
        stride in 1i64..=3,
        stencil in prop::bool::ANY,
        policy in arb_policy(),
        depth in prop::sample::select(vec![2usize, 3]),
        outer_kib in prop::sample::select(vec![256u64, 4 * 1024]),
    ) {
        let source = time_sweep_source(arrays, n, trips, stride, stencil);
        let scop = parse_scop(&source).unwrap();
        let memory = memory(depth, policy, outer_kib);
        let reference = simulate_memory(&scop, &memory);
        let outcome = WarpingSimulator::new(memory).run(&scop);
        prop_assert_eq!(
            &outcome.result,
            &reference,
            "policy={} depth={} source:\n{}",
            policy,
            depth,
            source
        );
    }
}
