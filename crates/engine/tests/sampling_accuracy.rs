//! Accuracy of the interval-sampling backend: for random kernels, random
//! multi-level hierarchies and every replacement policy, the sampled
//! per-level miss counts must lie within the error bound the backend itself
//! reports — the bound is the contract that makes the fast path usable —
//! and a sampling rate of 1.0 must be bit-for-bit identical to classic
//! simulation.

use cache_model::{CacheConfig, MemoryConfig, ReplacementPolicy};
use engine::{Backend, Engine, KernelSpec, SamplingOptions, SimReport, SimRequest};
use proptest::prelude::*;
use scop::ast::{access, assign, for_loop_strided, Expr, Program, Statement};
use scop::{elaborate, ElaborateOptions, Scop};

/// A random affine index `c0 + c1*i (+ c2*j)` with small coefficients, so
/// every subscript stays inside the generated arrays.
fn arb_index(depth: usize) -> impl Strategy<Value = Expr> {
    (0i64..3, 0i64..3, 0i64..3).prop_map(move |(c0, c1, c2)| {
        let mut e = Expr::Const(c0);
        e = e.add(Expr::iter("i").scale(c1));
        if depth > 1 {
            e = e.add(Expr::iter("j").scale(c2));
        }
        e
    })
}

/// A random statement over the declared arrays: one write, up to two reads.
fn arb_statement(depth: usize, num_arrays: usize) -> impl Strategy<Value = Statement> {
    let arrays: Vec<String> = (0..num_arrays).map(|k| format!("A{k}")).collect();
    (
        prop::sample::select(arrays.clone()),
        arb_index(depth),
        proptest::collection::vec((prop::sample::select(arrays), arb_index(depth)), 0..3),
    )
        .prop_map(|(warr, widx, reads)| {
            assign(
                access(&warr, vec![widx]),
                reads
                    .into_iter()
                    .map(|(arr, idx)| access(&arr, vec![idx]))
                    .collect(),
            )
        })
}

/// A random rectangular loop nest with an outer trip count large enough for
/// the sampler to actually skip intervals (the interesting regime; tiny
/// kernels are simulated exactly and trivially satisfy the bound).
/// Streaming and stencil-like accesses dominate because the coefficients
/// are small — exactly the steady-behaviour kernels sampling targets.
fn arb_program() -> impl Strategy<Value = Program> {
    (
        1usize..=2,      // number of arrays
        64i64..=160,     // outer trip count
        prop::bool::ANY, // nested?
        4i64..=16,       // inner trip count
        1usize..=2,      // statements in the innermost body
        1i64..=2,        // outer stride
    )
        .prop_flat_map(|(arrays, n, nested, m, stmts, stride)| {
            let depth = if nested { 2 } else { 1 };
            (
                Just((arrays, n, nested, m, stride)),
                proptest::collection::vec(arb_statement(depth, arrays), stmts),
            )
        })
        .prop_map(|((arrays, n, nested, m, stride), body)| {
            let mut program = Program::new();
            for k in 0..arrays {
                // Large enough that all generated subscripts stay in bounds.
                program = program.with_array(&format!("A{k}"), &[600], 8);
            }
            let stmt = if nested {
                for_loop_strided(
                    "i",
                    Expr::Const(0),
                    Expr::Const(n),
                    stride,
                    vec![for_loop_strided(
                        "j",
                        Expr::Const(0),
                        Expr::Const(m),
                        1,
                        body,
                    )],
                )
            } else {
                for_loop_strided("i", Expr::Const(0), Expr::Const(n), stride, body)
            };
            program.with_stmt(stmt)
        })
}

fn build(program: &Program) -> Scop {
    elaborate(program, &ElaborateOptions::default()).expect("generated programs elaborate")
}

fn arb_policy() -> impl Strategy<Value = ReplacementPolicy> {
    prop::sample::select(ReplacementPolicy::ALL.to_vec())
}

/// A depth-2 or depth-3 hierarchy with a tiny L1 (so the generated kernels
/// overflow it and per-level behaviour is non-trivial) and per-level random
/// policies.
fn arb_memory() -> impl Strategy<Value = MemoryConfig> {
    (arb_policy(), arb_policy(), arb_policy(), prop::bool::ANY).prop_map(
        |(p1, p2, p3, three_levels)| {
            let mut levels = vec![
                CacheConfig::with_sets(4, 2, 32, p1),
                CacheConfig::with_sets(16, 4, 32, p2),
            ];
            if three_levels {
                levels.push(CacheConfig::with_sets(64, 8, 32, p3));
            }
            MemoryConfig::new(levels).expect("hierarchies are compatible")
        },
    )
}

/// Sampling options spanning sparse to near-exhaustive schedules.
fn arb_options() -> impl Strategy<Value = SamplingOptions> {
    (
        prop::sample::select(vec![50_000u32, 100_000, 250_000, 500_000]),
        0u32..=2,
    )
        .prop_map(|(rate_ppm, warmup)| SamplingOptions {
            rate_ppm,
            warmup,
            max_error: 0,
        })
}

fn run(scop: &Scop, memory: &MemoryConfig, backend: Backend) -> SimReport {
    Engine::new()
        .run(&SimRequest::new(
            KernelSpec::prebuilt("random", scop.clone()),
            memory.clone(),
            backend,
        ))
        .expect("generated kernels simulate")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The central accuracy contract: on every level, the sampled miss
    /// count differs from classic simulation by at most the error bound
    /// the sampled report itself carries.
    #[test]
    fn sampled_misses_stay_within_the_reported_bound(
        program in arb_program(),
        memory in arb_memory(),
        options in arb_options(),
    ) {
        let scop = build(&program);
        let exact = run(&scop, &memory, Backend::Classic);
        let sampled = run(&scop, &memory, Backend::Sampled(options));
        prop_assert_eq!(
            sampled.result.accesses, exact.result.accesses,
            "extrapolation must preserve the total access count"
        );
        let approx = sampled.approx.as_ref().expect("sampled reports carry approx stats");
        prop_assert_eq!(approx.per_level_error_bound.len(), exact.result.levels.len());
        for (level, bound) in approx.per_level_error_bound.iter().enumerate() {
            let got = sampled.result.levels[level].misses;
            let want = exact.result.levels[level].misses;
            prop_assert!(
                got.abs_diff(want) <= *bound,
                "level {}: sampled {} vs exact {} exceeds bound {} \
                 (fraction {:.3}, period {}, {}/{} intervals measured)",
                level, got, want, bound,
                approx.sampled_fraction, approx.period,
                approx.measured_intervals, approx.intervals
            );
        }
        // A report that claims exactness must actually be exact.
        if approx.is_exact() {
            prop_assert_eq!(&sampled.result, &exact.result);
        }
    }

    /// Rate 1.0 is not "approximately exact": it runs the classic
    /// simulator verbatim, so counts are bit-for-bit identical on every
    /// level, and the report says so.
    #[test]
    fn full_rate_sampling_is_bit_identical_to_classic(
        program in arb_program(),
        memory in arb_memory(),
        warmup in 0u32..=2,
    ) {
        let scop = build(&program);
        let exact = run(&scop, &memory, Backend::Classic);
        let options = SamplingOptions::from_rate(1.0)
            .expect("1.0 is a valid rate")
            .with_warmup(warmup);
        let sampled = run(&scop, &memory, Backend::Sampled(options));
        prop_assert_eq!(&sampled.result, &exact.result);
        prop_assert!(sampled.exact, "a full-rate report is exact");
        let approx = sampled.approx.as_ref().expect("sampled reports carry approx stats");
        prop_assert!(approx.is_exact());
        prop_assert_eq!(approx.sampled_fraction, 1.0);
        prop_assert!(approx.per_level_error_bound.iter().all(|&b| b == 0));
    }
}

/// Deterministic anchor: a pure streaming kernel is behaviour-periodic, so
/// sampling extrapolates it *exactly* — zero bound, equal counts — while
/// simulating well under half the accesses.
#[test]
fn streaming_kernel_is_extrapolated_exactly() {
    let scop = scop::parse_scop("double A[8192]; for (i = 0; i < 8192; i++) A[i] = A[i];")
        .expect("streaming kernel parses");
    let memory = MemoryConfig::new(vec![
        CacheConfig::with_sets(8, 2, 64, ReplacementPolicy::Lru),
        CacheConfig::with_sets(32, 4, 64, ReplacementPolicy::Plru),
    ])
    .expect("two-level hierarchy");
    let exact = run(&scop, &memory, Backend::Classic);
    let sampled = run(&scop, &memory, Backend::sampled());
    let approx = sampled.approx.as_ref().expect("approx stats");
    assert!(approx.sampled_fraction < 0.5, "most intervals were skipped");
    assert_eq!(approx.per_level_error_bound, vec![0, 0]);
    assert_eq!(sampled.result, exact.result);
}
