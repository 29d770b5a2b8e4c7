//! Differential testing: warping simulation must produce exactly the same
//! access, hit and miss counts as non-warping simulation (Algorithm 1), for
//! random polyhedral programs, random cache geometries and all replacement
//! policies.  This is the central correctness property of the paper: warping
//! only accelerates the simulation, it never changes its outcome.

use crate::WarpingSimulator;
use cache_model::{CacheConfig, MemoryConfig, ReplacementPolicy};
use proptest::prelude::*;
use scop::ast::{access, assign, for_loop_strided, Expr, Program, Statement};
use scop::{elaborate, ElaborateOptions, Scop};
use simulate::simulate_memory;

/// A randomly generated affine index expression `c0 + c1*i (+ c2*j)`.
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

/// A random statement accessing one of the declared arrays.
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

/// A random one- or two-deep loop nest over small 1D arrays, with random
/// positive strides on both loops.
fn arb_program() -> impl Strategy<Value = Program> {
    (
        1usize..=3,      // number of arrays
        8i64..48,        // outer trip count
        prop::bool::ANY, // nested?
        prop::bool::ANY, // triangular inner loop?
        4i64..24,        // inner trip count
        1usize..=3,      // statements in the innermost body
        1i64..=3,        // outer stride
        1i64..=2,        // inner stride
    )
        .prop_flat_map(|(arrays, n, nested, triangular, m, stmts, s_out, s_in)| {
            let depth = if nested { 2 } else { 1 };
            (
                Just((arrays, n, nested, triangular, m, s_out, s_in)),
                proptest::collection::vec(arb_statement(depth, arrays), stmts),
            )
        })
        .prop_map(|((arrays, n, nested, triangular, m, s_out, s_in), body)| {
            let mut program = Program::new();
            for k in 0..arrays {
                // Large enough that all generated subscripts stay in bounds.
                program = program.with_array(&format!("A{k}"), &[600], 8);
            }
            let inner_lower = if triangular && nested {
                Expr::iter("i")
            } else {
                Expr::Const(0)
            };
            let stmt = if nested {
                for_loop_strided(
                    "i",
                    Expr::Const(0),
                    Expr::Const(n),
                    s_out,
                    vec![for_loop_strided(
                        "j",
                        inner_lower,
                        Expr::Const(m + n),
                        s_in,
                        body,
                    )],
                )
            } else {
                for_loop_strided("i", Expr::Const(0), Expr::Const(n), s_out, body)
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

fn arb_cache() -> impl Strategy<Value = CacheConfig> {
    (
        arb_policy(),
        prop::sample::select(vec![1usize, 2, 4, 8]),
        prop::sample::select(vec![2usize, 4]),
        prop::sample::select(vec![8u64, 32, 64]),
    )
        .prop_map(|(policy, sets, assoc, line)| CacheConfig::with_sets(sets, assoc, line, policy))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn warping_matches_nonwarping_single_level(program in arb_program(), config in arb_cache()) {
        let scop = build(&program);
        let memory = MemoryConfig::from(config.clone());
        let reference = simulate_memory(&scop, &memory);
        let outcome = WarpingSimulator::new(memory).eager().run(&scop);
        prop_assert_eq!(outcome.result, reference, "config: {:?}", config);
        prop_assert_eq!(
            outcome.non_warped_accesses + outcome.warped_accesses,
            reference.accesses
        );
    }

    #[test]
    fn warping_matches_nonwarping_hierarchy(
        program in arb_program(),
        policy1 in arb_policy(),
        policy2 in arb_policy(),
    ) {
        let scop = build(&program);
        let config = MemoryConfig::new(vec![
            CacheConfig::with_sets(2, 2, 32, policy1),
            CacheConfig::with_sets(8, 4, 32, policy2),
        ])
        .unwrap();
        let reference = simulate_memory(&scop, &config);
        let outcome = WarpingSimulator::new(config)
            .eager()
            .run(&scop);
        prop_assert_eq!(outcome.result, reference);
    }

    #[test]
    fn appending_a_level_never_changes_upstream_counts(
        program in arb_program(),
        config in arb_cache(),
        extra_sets_factor in prop::sample::select(vec![1usize, 2, 4]),
        extra_assoc in prop::sample::select(vec![2usize, 4, 8]),
        extra_policy in arb_policy(),
    ) {
        // Inclusive forwarding means an appended (outer) level only ever
        // *observes* the misses of the levels before it: their hit/miss
        // counts must be identical with and without it.
        let scop = build(&program);
        let base = MemoryConfig::from(config.clone());
        let extra = CacheConfig::with_sets(
            config.num_sets() * extra_sets_factor,
            extra_assoc,
            config.line_size(),
            extra_policy,
        );
        let extended = base.clone().with_level(extra).expect("compatible level");
        let without = simulate::simulate_memory(&scop, &base);
        let with = simulate::simulate_memory(&scop, &extended);
        prop_assert_eq!(without.accesses, with.accesses);
        prop_assert_eq!(without.depth() + 1, with.depth());
        prop_assert_eq!(
            &without.levels[..],
            &with.levels[..without.depth()],
            "upstream levels must be untouched by an appended level"
        );
        // The same holds through the warping simulator.
        let warped = WarpingSimulator::new(extended)
            .eager()
            .run(&scop);
        prop_assert_eq!(warped.result, with);
    }

    #[test]
    fn warping_matches_nonwarping_across_sequential_nests(
        first in arb_program(),
        second in arb_program(),
        config in arb_cache(),
    ) {
        // Concatenate two random programs over a shared set of arrays: the
        // second nest starts with a warm, possibly stale cache, exercising
        // the cache-agreement check.
        let mut program = Program::new();
        for k in 0..3 {
            program = program.with_array(&format!("A{k}"), &[600], 8);
        }
        for stmt in first.stmts.into_iter().chain(second.stmts) {
            program.stmts.push(stmt);
        }
        let scop = build(&program);
        let memory = MemoryConfig::from(config);
        let reference = simulate_memory(&scop, &memory);
        let outcome = WarpingSimulator::new(memory).eager().run(&scop);
        prop_assert_eq!(outcome.result, reference);
    }
}

/// A deterministic stress test: the paper's running example on every policy
/// and several geometries, with eager warping.
#[test]
fn stencil_exact_across_policies_and_geometries() {
    let scop = scop::parse_scop(
        "double A[6000]; double B[6000];\n\
         for (i = 1; i < 5999; i++) B[i-1] = A[i-1] + A[i];",
    )
    .unwrap();
    for policy in ReplacementPolicy::ALL {
        for (sets, assoc, line) in [(1, 2, 8), (4, 2, 8), (64, 8, 64), (16, 4, 32)] {
            let config = MemoryConfig::from(CacheConfig::with_sets(sets, assoc, line, policy));
            let reference = simulate_memory(&scop, &config);
            let outcome = WarpingSimulator::new(config.clone()).eager().run(&scop);
            assert_eq!(
                outcome.result, reference,
                "policy {policy}, sets {sets}, assoc {assoc}, line {line}"
            );
        }
    }
}
