//! The warp schedule, pinned: on the test-system L1 (32 KiB, 8-way,
//! 64-byte lines) the warping simulator must make exactly these warps,
//! match attempts, fingerprint hits and exact key builds on these SMALL
//! PolyBench kernels, and report exactly the classic counts.
//!
//! The schedule depends on every fingerprint, canonical key and plan
//! decision, so a change to the symbolic store that keeps the miss counts
//! but moves a digest or a key shows up here, not only in the benchmark.

use warpsim::prelude::*;

/// Runs `kernel` at SMALL on the test-system L1 under `policy` and checks
/// `(warps, match attempts, fingerprint hits, exact key builds)` and the
/// counts against classic simulation.
fn check(kernel: Kernel, policy: ReplacementPolicy, schedule: (u64, u64, u64, u64)) {
    let scop = kernel.build(Dataset::Small).expect("kernel builds");
    let cache = CacheConfig::new(32 * 1024, 8, 64, policy);
    let reference = simulate_single(&scop, &cache);
    let outcome = WarpingSimulator::single(cache).run(&scop);
    assert_eq!(outcome.result, reference, "{kernel} {policy}: counts");
    assert_eq!(
        (
            outcome.warps,
            outcome.match_attempts,
            outcome.fingerprint_hits,
            outcome.exact_key_builds
        ),
        schedule,
        "{kernel} {policy}: (warps, attempts, fingerprint hits, key builds)"
    );
}

#[test]
fn jacobi_2d_plru() {
    check(
        Kernel::Jacobi2d,
        ReplacementPolicy::Plru,
        (1, 12_048, 1_033, 1_033),
    );
}

#[test]
fn seidel_2d_plru() {
    check(
        Kernel::Seidel2d,
        ReplacementPolicy::Plru,
        (1, 2_004, 521, 521),
    );
}

#[test]
fn fdtd_2d_plru() {
    check(
        Kernel::Fdtd2d,
        ReplacementPolicy::Plru,
        (0, 10_283, 1_536, 1_536),
    );
}

#[test]
fn adi_plru() {
    check(
        Kernel::Adi,
        ReplacementPolicy::Plru,
        (1, 3_551, 1_033, 1_033),
    );
}

#[test]
fn gemm_lru() {
    check(Kernel::Gemm, ReplacementPolicy::Lru, (0, 656, 512, 512));
}
