//! Block bijections and the data-independence property.
//!
//! This module provides the machinery used to state (and test) Property 1,
//! Theorem 1 and Corollary 5 of the paper: bijections on memory blocks that
//! preserve the partition into cache sets, the cache-set bijections they
//! induce, and their application to cache states.

use crate::block::MemBlock;
use crate::cache::{CacheConfig, CacheState};
use crate::multilevel::MultiLevelState;

/// A bijection on memory blocks given by a shift: `π(b) = b + delta`.
///
/// Shift bijections always preserve the partition of blocks into cache sets
/// (they are members of `Π_index=` in the paper's notation) and induce the
/// set rotation `π_Set(s) = (s + delta) mod num_sets`, which is exactly the
/// class of matches the warping simulator looks for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShiftBijection {
    /// The shift applied to every block number.
    pub delta: i64,
}

impl ShiftBijection {
    /// A new shift bijection.
    pub fn new(delta: i64) -> Self {
        ShiftBijection { delta }
    }

    /// Applies the bijection to a block.
    ///
    /// # Panics
    ///
    /// Panics if the shifted block number would be negative.
    pub fn apply(&self, block: MemBlock) -> MemBlock {
        let shifted = block.0 as i64 + self.delta;
        assert!(shifted >= 0, "shifted block number must be non-negative");
        MemBlock(shifted as u64)
    }

    /// The induced rotation of cache-set indices for a cache with `num_sets`
    /// sets: `π_Set(s) = (s + delta) mod num_sets`.
    pub fn set_rotation(&self, num_sets: usize) -> i64 {
        self.delta.rem_euclid(num_sets as i64)
    }

    /// Applies the bijection to a whole cache state (Equation 5):
    /// `π(c) = λ s. π(c(π_Set⁻¹(s)))`.  O(occupied sets): the induced set
    /// bijection is a rotation, which the sparse state applies natively.
    pub fn apply_to_cache(
        &self,
        config: &CacheConfig,
        state: &CacheState<MemBlock>,
    ) -> CacheState<MemBlock> {
        let rot = self.set_rotation(config.num_sets());
        state.rotate_sets(rot).map_payloads(|b| self.apply(*b))
    }

    /// Applies the bijection to an N-level state (Corollary 5 generalized):
    /// every level is renamed with the same block bijection.
    ///
    /// # Panics
    ///
    /// Panics if the configuration and the state disagree on the number of
    /// levels.
    pub fn apply_to_levels(
        &self,
        config: &crate::MemoryConfig,
        state: &MultiLevelState,
    ) -> MultiLevelState {
        assert_eq!(
            config.depth(),
            state.depth(),
            "the configuration and the state must have the same number of levels"
        );
        MultiLevelState::from_levels(
            config
                .levels()
                .iter()
                .zip(state.levels())
                .map(|(level, flat)| {
                    let rot = self.set_rotation(level.num_sets());
                    flat.relabel(
                        |set| rotate_index(set, rot, level.num_sets()),
                        |b| self.apply(b),
                    )
                })
                .collect(),
        )
    }
}

/// Rotates a set index by `offset` positions: `(index + offset) mod num_sets`.
pub fn rotate_index(index: usize, offset: i64, num_sets: usize) -> usize {
    (index as i64 + offset).rem_euclid(num_sets as i64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReplacementPolicy;

    #[test]
    fn shift_preserves_index_partition() {
        let config = CacheConfig::with_sets(4, 2, 64, ReplacementPolicy::Lru);
        let pi = ShiftBijection::new(3);
        for b in 0..32u64 {
            for b2 in 0..32u64 {
                let same_before = config.index(MemBlock(b)) == config.index(MemBlock(b2));
                let same_after =
                    config.index(pi.apply(MemBlock(b))) == config.index(pi.apply(MemBlock(b2)));
                assert_eq!(same_before, same_after);
            }
        }
    }

    #[test]
    fn rotate_index_wraps() {
        assert_eq!(rotate_index(3, 1, 4), 0);
        assert_eq!(rotate_index(0, -1, 4), 3);
        assert_eq!(rotate_index(2, 6, 4), 0);
    }

    /// Theorem 1 on a concrete example: updating then renaming equals
    /// renaming then updating with the renamed block.
    #[test]
    fn data_independence_example() {
        let config = CacheConfig::with_sets(4, 2, 64, ReplacementPolicy::Lru);
        let pi = ShiftBijection::new(1);
        let mut c = CacheState::new(&config);
        for b in [0u64, 1, 4, 5, 2] {
            c.access_block(&config, MemBlock(b));
        }
        let b = MemBlock(6);
        // π(UpCache(c, b))
        let mut updated = c.clone();
        updated.access_block(&config, b);
        let lhs = pi.apply_to_cache(&config, &updated);
        // UpCache(π(c), π(b))
        let mut rhs = pi.apply_to_cache(&config, &c);
        rhs.access_block(&config, pi.apply(b));
        assert_eq!(lhs, rhs);
    }

    /// Corollary 5 on the flat concrete store: the same commutation over a
    /// three-level hierarchy, with the renaming applied by `apply_to_levels`.
    #[test]
    fn data_independence_on_flat_levels() {
        let config = crate::MemoryConfig::new(vec![
            CacheConfig::with_sets(2, 2, 64, ReplacementPolicy::Plru),
            CacheConfig::with_sets(4, 2, 64, ReplacementPolicy::Qlru),
            CacheConfig::with_sets(8, 4, 64, ReplacementPolicy::Lru),
        ])
        .unwrap();
        let pi = ShiftBijection::new(3);
        let mut c = MultiLevelState::new(&config);
        for b in [0u64, 1, 4, 5, 2, 8, 0, 16] {
            c.access_block(MemBlock(b));
        }
        let b = MemBlock(6);
        let mut updated = c.clone();
        let out_original = updated.access_block(b);
        let lhs = pi.apply_to_levels(&config, &updated);
        let mut rhs = pi.apply_to_levels(&config, &c);
        let out_renamed = rhs.access_block(pi.apply(b));
        assert_eq!(out_original, out_renamed);
        assert_eq!(lhs, rhs);
    }
}
