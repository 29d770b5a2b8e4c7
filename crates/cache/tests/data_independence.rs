//! Property-based tests of the data-independence theorems.
//!
//! * Property 1 / Theorem 1: for every index-preserving bijection `π`,
//!   `π(UpCache(c, b)) = UpCache(π(c), π(b))` and classification is
//!   invariant under `π`.
//! * Theorem 2 (cache warping): if `c1 = UpCache(c0, s0) = π(c0)` and the
//!   access sequences repeat under `π`, the final state is `πⁿ(c1)` and the
//!   misses of each repetition equal those of the first.
//! * Corollary 5: the same holds for non-inclusive non-exclusive
//!   hierarchies, stated over the reference `walk_access` on depth-2 and
//!   depth-3 hierarchies of sparse states.

use cache_model::bijection::ShiftBijection;
use cache_model::{walk_access, CacheConfig, CacheState, MemBlock, ReplacementPolicy};
use proptest::prelude::*;

fn arb_policy() -> impl Strategy<Value = ReplacementPolicy> {
    prop::sample::select(ReplacementPolicy::ALL.to_vec())
}

fn arb_config() -> impl Strategy<Value = CacheConfig> {
    (
        arb_policy(),
        prop::sample::select(vec![1usize, 2, 4, 8]),
        prop::sample::select(vec![1usize, 2, 4]),
    )
        .prop_map(|(policy, sets, assoc)| CacheConfig::with_sets(sets, assoc, 64, policy))
}

fn arb_blocks(max_block: u64, len: usize) -> impl Strategy<Value = Vec<MemBlock>> {
    proptest::collection::vec((0..max_block).prop_map(MemBlock), 1..len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Theorem 1: update commutes with index-preserving bijections.
    #[test]
    fn update_commutes_with_bijection(
        config in arb_config(),
        history in arb_blocks(64, 40),
        block in 0u64..64,
        delta in 0i64..32,
    ) {
        let pi = ShiftBijection::new(delta);
        let mut c = CacheState::new(&config);
        for b in &history {
            c.access_block(&config, *b);
        }
        let b = MemBlock(block);

        let mut updated = c.clone();
        let hit_original = updated.access_block(&config, b);
        let lhs = pi.apply_to_cache(&config, &updated);

        let mut rhs = pi.apply_to_cache(&config, &c);
        let hit_renamed = rhs.access_block(&config, pi.apply(b));

        prop_assert_eq!(lhs, rhs);
        prop_assert_eq!(hit_original, hit_renamed, "classification must be invariant");
    }

    /// Theorem 1 for hierarchies (Corollary 5): renaming every level with
    /// the same bijection commutes with the inclusive walk, at depth 2 and 3.
    #[test]
    fn hierarchy_update_commutes_with_bijection(
        policies in proptest::collection::vec(arb_policy(), 3),
        depth in 2usize..=3,
        history in arb_blocks(64, 40),
        block in 0u64..64,
        delta in 0i64..16,
    ) {
        let configs: Vec<CacheConfig> = [(2, 2), (4, 4), (8, 4)]
            .iter()
            .zip(&policies)
            .take(depth)
            .map(|(&(sets, assoc), &policy)| CacheConfig::with_sets(sets, assoc, 64, policy))
            .collect();
        let pi = ShiftBijection::new(delta);
        let access = |levels: &mut Vec<CacheState<MemBlock>>, b: MemBlock| {
            walk_access(configs.iter().zip(levels.iter_mut()), b, true)
        };
        let rename = |levels: &[CacheState<MemBlock>]| -> Vec<CacheState<MemBlock>> {
            configs
                .iter()
                .zip(levels)
                .map(|(config, state)| pi.apply_to_cache(config, state))
                .collect()
        };
        let mut h: Vec<CacheState<MemBlock>> = configs.iter().map(CacheState::new).collect();
        for b in &history {
            access(&mut h, *b);
        }
        let b = MemBlock(block);

        let mut updated = h.clone();
        let out_original = access(&mut updated, b);
        let lhs = rename(&updated);

        let mut rhs = rename(&h);
        let out_renamed = access(&mut rhs, pi.apply(b));

        prop_assert_eq!(lhs, rhs);
        prop_assert_eq!(out_original, out_renamed);
    }

    /// The key lemma behind Theorem 2 (cache warping): starting from
    /// π-related states, π-related access sequences produce π-related states
    /// and the same number of misses.  Iterating this lemma is exactly what
    /// justifies fast-forwarding the simulation.
    #[test]
    fn shifted_sequences_from_renamed_states_agree(
        config in arb_config(),
        history in arb_blocks(32, 40),
        pattern in arb_blocks(32, 10),
        delta in 0i64..16,
    ) {
        let pi = ShiftBijection::new(delta);
        let mut c0 = CacheState::new(&config);
        for b in &history {
            c0.access_block(&config, *b);
        }
        let mut c1 = pi.apply_to_cache(&config, &c0);

        let mut misses0 = 0u64;
        let mut misses1 = 0u64;
        for b in &pattern {
            if !c0.access_block(&config, *b) {
                misses0 += 1;
            }
            if !c1.access_block(&config, pi.apply(*b)) {
                misses1 += 1;
            }
        }
        prop_assert_eq!(misses0, misses1);
        prop_assert_eq!(pi.apply_to_cache(&config, &c0), c1);
    }
}
