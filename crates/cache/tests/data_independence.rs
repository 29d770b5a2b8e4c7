//! Property-based tests of the data-independence theorems, on the store
//! every simulator runs: `MultiLevelState` over `FlatLevel`s.
//!
//! The block bijection is the shift `π(b) = b + δ`, applied to a state
//! (Equation 5) with `FlatLevel::shift_rows(δ mod sets, δ, |_, _| true)`:
//! every set rotates by `δ mod sets` and every line's block advances by
//! `δ`, the renaming a warp applies.
//!
//! * Property 1 / Theorem 1: `π(UpCache(c, b)) = UpCache(π(c), π(b))` and
//!   classification is invariant under `π`.
//! * Theorem 2 (cache warping): if `c1 = UpCache(c0, s0) = π(c0)` and the
//!   access sequences repeat under `π`, the final state is `πⁿ(c1)` and the
//!   misses of each repetition equal those of the first.
//! * Corollary 5: the same holds for non-inclusive non-exclusive
//!   hierarchies, stated over the inclusive walk of depth-2 and depth-3
//!   hierarchies.

use cache_model::{CacheConfig, MemBlock, MemoryConfig, MultiLevelState, ReplacementPolicy};
use proptest::prelude::*;

fn arb_policy() -> impl Strategy<Value = ReplacementPolicy> {
    prop::sample::select(ReplacementPolicy::ALL.to_vec())
}

fn arb_config() -> impl Strategy<Value = MemoryConfig> {
    (
        arb_policy(),
        prop::sample::select(vec![1usize, 2, 4, 8]),
        prop::sample::select(vec![1usize, 2, 4]),
    )
        .prop_map(|(policy, sets, assoc)| {
            MemoryConfig::from(CacheConfig::with_sets(sets, assoc, 64, policy))
        })
}

fn arb_blocks(max_block: u64, len: usize) -> impl Strategy<Value = Vec<MemBlock>> {
    proptest::collection::vec((0..max_block).prop_map(MemBlock), 1..len)
}

/// `π(c)` for `π(b) = b + delta`, level by level.
fn shifted(state: &MultiLevelState, delta: i64) -> MultiLevelState {
    MultiLevelState::from_levels(
        state
            .levels()
            .iter()
            .map(|level| {
                let mut level = level.clone();
                let rotation = delta.rem_euclid(level.num_sets() as i64) as usize;
                level.shift_rows(rotation, delta, |_, _| true);
                level
            })
            .collect(),
    )
}

/// `π(b)`.
fn shift(block: MemBlock, delta: i64) -> MemBlock {
    MemBlock(block.0.checked_add_signed(delta).expect("shifted block"))
}

/// A state of `config` after the read accesses `history`.
fn after(config: &MemoryConfig, history: &[MemBlock]) -> MultiLevelState {
    let mut state = MultiLevelState::new(config);
    for &b in history {
        state.access_block(b);
    }
    state
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
        let c = after(&config, &history);
        let b = MemBlock(block);

        let mut updated = c.clone();
        let hit_original = updated.access_block(b).hit;
        let lhs = shifted(&updated, delta);

        let mut rhs = shifted(&c, delta);
        let hit_renamed = rhs.access_block(shift(b, delta)).hit;

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
        let levels: Vec<CacheConfig> = [(2, 2), (4, 4), (8, 4)]
            .iter()
            .zip(&policies)
            .take(depth)
            .map(|(&(sets, assoc), &policy)| CacheConfig::with_sets(sets, assoc, 64, policy))
            .collect();
        let config = MemoryConfig::new(levels).expect("valid hierarchy");
        let h = after(&config, &history);
        let b = MemBlock(block);

        let mut updated = h.clone();
        let out_original = updated.access_block(b);
        let lhs = shifted(&updated, delta);

        let mut rhs = shifted(&h, delta);
        let out_renamed = rhs.access_block(shift(b, delta));

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
        let mut c0 = after(&config, &history);
        let mut c1 = shifted(&c0, delta);

        let mut misses0 = 0u64;
        let mut misses1 = 0u64;
        for &b in &pattern {
            if !c0.access_block(b).hit {
                misses0 += 1;
            }
            if !c1.access_block(shift(b, delta)).hit {
                misses1 += 1;
            }
        }
        prop_assert_eq!(misses0, misses1);
        prop_assert_eq!(shifted(&c0, delta), c1);
    }
}
