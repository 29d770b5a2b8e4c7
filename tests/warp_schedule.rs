//! The warp schedule, pinned: the warping simulator must make exactly these
//! warps, warped accesses, match attempts, fingerprint hits and exact key
//! builds, and report exactly the classic counts.  Most pins run SMALL
//! PolyBench kernels on the test-system L1 (32 KiB, 8-way, 64-byte lines).
//!
//! The schedule depends on every fingerprint, canonical key and plan
//! decision, so a change to the symbolic store or to the explicit walk that
//! keeps the miss counts but moves a digest, a key or an attempt shows up
//! here, not only in the benchmark.  Besides stencils the pins cover
//! non-trivial guards (`nussinov`), triangular bounds (`lu`), ragged-tile
//! guards (a tiled gemm instance), a decreasing outer loop around an
//! increasing inner one, and loops that warp only after a long warm-up of
//! many hundred attempts.

use warpsim::prelude::*;
use warpsim::scop::{ParamBindings, ParametricScop};

/// `(warps, warped accesses, match attempts, fingerprint hits, exact key
/// builds)`.
type Pin = (u64, u64, u64, u64, u64);

/// The test-system L1 under `policy`.
fn l1(policy: ReplacementPolicy) -> MemoryConfig {
    MemoryConfig::from(CacheConfig::new(32 * 1024, 8, 64, policy))
}

/// Runs `kernel` at SMALL on the test-system L1 under `policy` and checks
/// the pin and the counts against classic simulation.
fn check(kernel: Kernel, policy: ReplacementPolicy, pin: Pin) {
    let scop = kernel.build(Dataset::Small).expect("kernel builds");
    check_scop(&format!("{kernel} {policy}"), &scop, &l1(policy), pin);
}

/// [`check`] for an already-built SCoP on any memory, labelled `name` in
/// failures.  Returns the outcome for further checks.
fn check_scop(name: &str, scop: &Scop, memory: &MemoryConfig, pin: Pin) -> WarpingOutcome {
    let reference = simulate_memory(scop, memory);
    let outcome = WarpingSimulator::new(memory.clone()).run(scop);
    assert_eq!(outcome.result, reference, "{name}: counts");
    assert_eq!(
        (
            outcome.warps,
            outcome.warped_accesses,
            outcome.match_attempts,
            outcome.fingerprint_hits,
            outcome.exact_key_builds
        ),
        pin,
        "{name}: (warps, warped accesses, attempts, fingerprint hits, key builds)"
    );
    outcome
}

/// `B[i-1] = A[i-1] + A[i]` over `n` doubles per array: the stream of the
/// crate example of `warping`.
fn stream(n: i64) -> Scop {
    parse_scop(&format!(
        "double A[{n}]; double B[{n}];\n\
         for (i = 1; i < {m}; i++) B[i-1] = A[i-1] + A[i];",
        m = n - 1
    ))
    .expect("kernel parses")
}

#[test]
fn jacobi_2d_plru() {
    check(
        Kernel::Jacobi2d,
        ReplacementPolicy::Plru,
        (1, 1_486_848, 2_178, 9, 9),
    );
}

#[test]
fn seidel_2d_plru() {
    check(
        Kernel::Seidel2d,
        ReplacementPolicy::Plru,
        (1, 2_227_840, 1_082, 9, 9),
    );
}

#[test]
fn fdtd_2d_plru() {
    check(Kernel::Fdtd2d, ReplacementPolicy::Plru, (0, 0, 3_207, 0, 0));
}

#[test]
fn fdtd_2d_lru() {
    check(
        Kernel::Fdtd2d,
        ReplacementPolicy::Lru,
        (120, 1_496_320, 4_735, 240, 240),
    );
}

#[test]
fn adi_plru() {
    check(
        Kernel::Adi,
        ReplacementPolicy::Plru,
        (1, 1_301_056, 1_650, 9, 9),
    );
}

#[test]
fn gemm_lru() {
    check(Kernel::Gemm, ReplacementPolicy::Lru, (0, 0, 525, 0, 0));
}

// No loop of `nussinov` or `lu` moves every access below it by one common
// stride, so neither kernel may attempt a single match: the pins hold the
// explicit walk over their guards and triangular bounds to the classic
// counts with no warp machinery in the way.

#[test]
fn nussinov_lru() {
    check(Kernel::Nussinov, ReplacementPolicy::Lru, (0, 0, 0, 0, 0));
}

#[test]
fn lu_lru() {
    check(Kernel::Lu, ReplacementPolicy::Lru, (0, 0, 0, 0, 0));
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
        "tiled-gemm lru",
        &scop,
        &l1(ReplacementPolicy::Lru),
        (0, 0, 532, 0, 0),
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
        "decreasing lru",
        &scop,
        &l1(ReplacementPolicy::Lru),
        (16, 292_608, 2_592, 48, 48),
    );
}

// Most explicit accesses of these three slices fall in loop entries that
// cannot attempt a match (too short, non-uniform or out of fruitless
// budget), which the simulator replays as run groups: the pins hold the
// grouped replay to the attempts and keys of the per-iteration walk.

#[test]
fn heat_3d_plru() {
    check(
        Kernel::Heat3d,
        ReplacementPolicy::Plru,
        (1, 3_592_512, 10, 5, 5),
    );
}

#[test]
fn syrk_lru() {
    check(Kernel::Syrk, ReplacementPolicy::Lru, (0, 0, 516, 0, 0));
}

#[test]
fn atax_lru() {
    check(Kernel::Atax, ReplacementPolicy::Lru, (0, 0, 38, 0, 0));
}

// Warm-up pins: each stream below is one long loop entry that warps only
// after several hundred match attempts (at attempts 527, 415 and 1,033),
// more than the fruitless budget (512) for two of them.  A schedule that
// gives up on a single entry too early loses these warps.

#[test]
fn stream_plru() {
    // The crate example of `warping`.
    check_scop(
        "stream plru",
        &stream(32_000),
        &l1(ReplacementPolicy::Plru),
        (1, 67_584, 623, 225, 225),
    );
}

#[test]
fn stream_qlru() {
    check_scop(
        "stream qlru",
        &stream(32_000),
        &l1(ReplacementPolicy::Qlru),
        (1, 73_728, 495, 209, 209),
    );
}

#[test]
fn stream_plru_64k() {
    let memory = MemoryConfig::from(CacheConfig::new(64 * 1024, 8, 64, ReplacementPolicy::Plru));
    check_scop(
        "stream plru 64K",
        &stream(100_000),
        &memory,
        (1, 245_760, 1_161, 385, 385),
    );
}

#[test]
fn rescan_over_outer_level() {
    // The kernel of the `fig13_match_cost` bench on its smallest outer
    // level: the 4 KiB array overflows the 1 KiB L1, so the outer level
    // keeps being touched, and the time loop warps once.
    let scop = parse_scop(
        "double A[512];\n\
         for (t = 0; t < 10000; t++) for (i = 0; i < 512; i++) A[i] = A[i];",
    )
    .expect("kernel parses");
    let memory = MemoryConfig::new(vec![
        CacheConfig::new(1024, 4, 64, ReplacementPolicy::Lru),
        CacheConfig::new(256 * 1024, 16, 64, ReplacementPolicy::Lru),
    ])
    .expect("valid hierarchy");
    check_scop(
        "rescan 1K+256K lru",
        &scop,
        &memory,
        (1, 10_235_904, 252, 2, 2),
    );
}

#[test]
fn l1_resident_over_64_mib() {
    // The kernel of the `fig_l1_resident` bench on its largest outer level:
    // the 4 KiB array stays in the 32 KiB L1, so the outer levels keep the
    // labels of the warm-up, and the time loop warps only because those
    // frozen levels match through epoch renormalisation.
    let scop = parse_scop(
        "double A[512];\n\
         for (t = 0; t < 20000; t++) for (i = 0; i < 512; i++) A[i] = A[i];",
    )
    .expect("kernel parses");
    let memory = MemoryConfig::new(vec![
        CacheConfig::new(32 * 1024, 8, 64, ReplacementPolicy::Lru),
        CacheConfig::new(256 * 1024, 16, 64, ReplacementPolicy::Lru),
        CacheConfig::new(64 * 1024 * 1024, 16, 64, ReplacementPolicy::Lru),
    ])
    .expect("valid hierarchy");
    let outcome = check_scop(
        "l1-resident 64M lru",
        &scop,
        &memory,
        (1, 20_475_904, 252, 2, 2),
    );
    assert!(
        outcome.stale_label_renorms >= 1,
        "the frozen outer levels must match through renormalisation"
    );
}
