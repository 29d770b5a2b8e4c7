//! The warp schedule, pinned: on the test-system L1 (32 KiB, 8-way,
//! 64-byte lines) the warping simulator must make exactly these warps,
//! match attempts, fingerprint hits and exact key builds on these SMALL
//! PolyBench kernels, and report exactly the classic counts.
//!
//! The schedule depends on every fingerprint, canonical key and plan
//! decision, so a change to the symbolic store or to the explicit walk that
//! keeps the miss counts but moves a digest, a key or an attempt shows up
//! here, not only in the benchmark.  Besides stencils the pins cover
//! non-trivial guards (`nussinov`), triangular bounds (`lu`), ragged-tile
//! guards (a tiled gemm instance) and a decreasing outer loop around an
//! increasing inner one.

use warpsim::prelude::*;
use warpsim::scop::{ParamBindings, ParametricScop};

/// Runs `kernel` at SMALL on the test-system L1 under `policy` and checks
/// `(warps, match attempts, fingerprint hits, exact key builds)` and the
/// counts against classic simulation.
fn check(kernel: Kernel, policy: ReplacementPolicy, schedule: (u64, u64, u64, u64)) {
    let scop = kernel.build(Dataset::Small).expect("kernel builds");
    check_scop(&kernel.to_string(), &scop, policy, schedule);
}

/// [`check`] for an already-built SCoP, labelled `name` in failures.
fn check_scop(name: &str, scop: &Scop, policy: ReplacementPolicy, schedule: (u64, u64, u64, u64)) {
    let cache = MemoryConfig::from(CacheConfig::new(32 * 1024, 8, 64, policy));
    let reference = simulate_memory(scop, &cache);
    let outcome = WarpingSimulator::new(cache).run(scop);
    assert_eq!(outcome.result, reference, "{name} {policy}: counts");
    assert_eq!(
        (
            outcome.warps,
            outcome.match_attempts,
            outcome.fingerprint_hits,
            outcome.exact_key_builds
        ),
        schedule,
        "{name} {policy}: (warps, attempts, fingerprint hits, key builds)"
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
fn fdtd_2d_lru() {
    check(
        Kernel::Fdtd2d,
        ReplacementPolicy::Lru,
        (120, 5_295, 1_776, 1_776),
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

// No loop of `nussinov` or `lu` moves every access below it by one common
// stride, so neither kernel may attempt a single match: the pins hold the
// explicit walk over their guards and triangular bounds to the classic
// counts with no warp machinery in the way.

#[test]
fn nussinov_lru() {
    check(Kernel::Nussinov, ReplacementPolicy::Lru, (0, 0, 0, 0));
}

#[test]
fn lu_lru() {
    check(Kernel::Lu, ReplacementPolicy::Lru, (0, 0, 0, 0));
}

#[test]
fn tiled_gemm_ragged_lru() {
    // 64 = 28 + 28 + 8: the last tile of each tiled loop is ragged, so its
    // `if (i < NI)` / `if (j < NJ)` guards clip the innermost intervals.
    let template = ParametricScop::cached(warpsim::polybench::parametric::TILED_GEMM)
        .expect("template parses");
    let bindings = ParamBindings::new()
        .with("NI", 64)
        .with("NJ", 64)
        .with("NK", 64)
        .with("TI", 28)
        .with("TJ", 28);
    let scop = template.instantiate(&bindings).expect("instance builds");
    check_scop(
        "tiled-gemm",
        &scop,
        ReplacementPolicy::Lru,
        (0, 624, 512, 512),
    );
}

#[test]
fn decreasing_outer_loop_lru() {
    // The outer loop walks downwards and never attempts a match; the
    // increasing inner loop streams over arrays larger than the cache.
    let scop = parse_scop(
        "double A[16][8192]; double B[8192];\n\
         for (i = 15; i >= 0; i--)\n\
           for (j = 1; j < 8191; j++) A[i][j] = B[j-1] + B[j];",
    )
    .expect("kernel parses");
    check_scop(
        "decreasing",
        &scop,
        ReplacementPolicy::Lru,
        (16, 2_592, 480, 480),
    );
}

// Most explicit accesses of these three slices fall in loop entries that
// cannot attempt a match (too short, non-uniform or out of fruitless
// budget), which the simulator replays as run groups: the pins hold the
// grouped replay to the attempts and keys of the per-iteration walk.

#[test]
fn heat_3d_plru() {
    check(Kernel::Heat3d, ReplacementPolicy::Plru, (1, 10, 5, 5));
}

#[test]
fn syrk_lru() {
    check(Kernel::Syrk, ReplacementPolicy::Lru, (0, 610, 512, 512));
}

#[test]
fn atax_lru() {
    check(Kernel::Atax, ReplacementPolicy::Lru, (0, 38, 28, 28));
}
