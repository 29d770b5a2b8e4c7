//! The analytical models must agree exactly with explicit simulation of the
//! corresponding cache (fully-associative LRU for the HayStack stand-in,
//! set-associative LRU hierarchies for the PolyCache stand-in).

use analytical::{HaystackModel, PolyCacheModel};
use cache_model::{CacheConfig, MemoryConfig, ReplacementPolicy};
use proptest::prelude::*;
use scop::ast::{access, assign, for_loop, Expr, Program};
use scop::{elaborate, ElaborateOptions, Scop};
use simulate::simulate_memory;

fn arb_program() -> impl Strategy<Value = Program> {
    (
        2i64..40,
        proptest::collection::vec((0i64..3, 0i64..3, 0usize..2), 1..4),
    )
        .prop_map(|(n, accesses)| {
            let mut program = Program::new()
                .with_array("A", &[200], 8)
                .with_array("B", &[200], 8);
            let body = accesses
                .into_iter()
                .map(|(c0, c1, which)| {
                    let arr = if which == 0 { "A" } else { "B" };
                    assign(
                        access(arr, vec![Expr::iter("i").scale(c1).offset(c0)]),
                        vec![access(arr, vec![Expr::iter("i").scale(c1)])],
                    )
                })
                .collect();
            program = program.with_stmt(for_loop("i", Expr::Const(0), Expr::Const(n), body));
            program
        })
}

fn build(p: &Program) -> Scop {
    elaborate(p, &ElaborateOptions::default()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn haystack_equals_fully_associative_lru(program in arb_program(), lines in 1usize..64) {
        let scop = build(&program);
        let profile = HaystackModel::new(64).analyze(&scop);
        let config = CacheConfig::fully_associative(lines, 64, ReplacementPolicy::Lru);
        let reference = simulate_memory(&scop, &MemoryConfig::from(config));
        prop_assert_eq!(profile.misses(lines), reference.levels[0].misses);
        prop_assert_eq!(profile.hits(lines), reference.levels[0].hits);
        prop_assert_eq!(profile.accesses, reference.accesses);
    }

    #[test]
    fn polycache_equals_hierarchy_simulation(program in arb_program()) {
        let scop = build(&program);
        let config = MemoryConfig::new(vec![
            CacheConfig::with_sets(4, 2, 64, ReplacementPolicy::Lru),
            CacheConfig::with_sets(16, 4, 64, ReplacementPolicy::Lru),
        ])
        .unwrap();
        let reference = simulate_memory(&scop, &config);
        let levels = PolyCacheModel::new(&config).unwrap().analyze(&scop);
        prop_assert_eq!(levels[0].misses, reference.levels[0].misses);
        prop_assert_eq!(levels[1].misses, reference.levels[1].misses);
    }

    #[test]
    fn one_profile_covers_all_capacities(program in arb_program()) {
        let scop = build(&program);
        let profile = HaystackModel::new(8).analyze(&scop);
        for lines in [1usize, 2, 3, 5, 8, 13] {
            let config = CacheConfig::fully_associative(lines, 8, ReplacementPolicy::Lru);
            let reference = simulate_memory(&scop, &MemoryConfig::from(config));
            prop_assert_eq!(profile.misses(lines), reference.levels[0].misses, "lines = {}", lines);
        }
    }
}
