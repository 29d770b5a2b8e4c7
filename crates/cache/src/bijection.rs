//! The block bijection of the data-independence theorems on the production
//! store.
//!
//! A shift `π(b) = b + δ` preserves the partition of blocks into cache sets
//! (it is a member of the paper's `Π_index=`) and induces the set rotation
//! `s ↦ (s + δ) mod sets`.  It renames a state (Equation 5) through
//! [`FlatLevel::shift_rows`](crate::FlatLevel::shift_rows), the path warping
//! itself uses; `tests/data_independence.rs` checks the theorems over it on
//! random states.  The module holds tests only.

#[cfg(test)]
mod tests {
    use crate::{CacheConfig, MemBlock, MemoryConfig, MultiLevelState, ReplacementPolicy};

    /// `π(c)`: every level's sets rotate by `delta mod sets` and every
    /// line's block advances by `delta`.
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

    #[test]
    fn shift_preserves_index_partition() {
        let config = CacheConfig::with_sets(4, 2, 64, ReplacementPolicy::Lru);
        let pi = |b: u64| MemBlock(b + 3);
        for b in 0..32u64 {
            for b2 in 0..32u64 {
                let same_before = config.index(MemBlock(b)) == config.index(MemBlock(b2));
                let same_after = config.index(pi(b)) == config.index(pi(b2));
                assert_eq!(same_before, same_after);
            }
        }
    }

    /// The induced rotation wraps around the set count, forwards and (as
    /// `delta mod sets`) backwards.
    #[test]
    fn rotate_index_wraps() {
        let config = MemoryConfig::from(CacheConfig::with_sets(4, 1, 64, ReplacementPolicy::Lru));
        let mut c = MultiLevelState::new(&config);
        c.access_block(MemBlock(3));
        c.access_block(MemBlock(4));
        let sets = |state: &MultiLevelState| -> Vec<usize> {
            let mut sets: Vec<usize> = state.level(0).occupied_sets().map(|s| s.index()).collect();
            sets.sort_unstable();
            sets
        };
        assert_eq!(sets(&c), vec![0, 3]);
        assert_eq!(sets(&shifted(&c, 1)), vec![0, 1]);
        assert_eq!(sets(&shifted(&c, 6)), vec![1, 2]);
        let back = shifted(&c, -1);
        assert_eq!(sets(&back), vec![2, 3]);
        assert_eq!(back.level(0).set_state(3).lines()[0], Some(MemBlock(3)));
    }

    /// Theorem 1 on a concrete example: updating then renaming equals
    /// renaming then updating with the renamed block.
    #[test]
    fn data_independence_example() {
        let config = MemoryConfig::from(CacheConfig::with_sets(4, 2, 64, ReplacementPolicy::Lru));
        let mut c = MultiLevelState::new(&config);
        for b in [0u64, 1, 4, 5, 2] {
            c.access_block(MemBlock(b));
        }
        let b = MemBlock(6);
        // π(UpCache(c, b))
        let mut updated = c.clone();
        updated.access_block(b);
        let lhs = shifted(&updated, 1);
        // UpCache(π(c), π(b))
        let mut rhs = shifted(&c, 1);
        rhs.access_block(MemBlock(b.0 + 1));
        assert_eq!(lhs, rhs);
    }

    /// Corollary 5 on the flat concrete store: the same commutation over a
    /// three-level hierarchy.
    #[test]
    fn data_independence_on_flat_levels() {
        let config = MemoryConfig::new(vec![
            CacheConfig::with_sets(2, 2, 64, ReplacementPolicy::Plru),
            CacheConfig::with_sets(4, 2, 64, ReplacementPolicy::Qlru),
            CacheConfig::with_sets(8, 4, 64, ReplacementPolicy::Lru),
        ])
        .unwrap();
        let mut c = MultiLevelState::new(&config);
        for b in [0u64, 1, 4, 5, 2, 8, 0, 16] {
            c.access_block(MemBlock(b));
        }
        let b = MemBlock(6);
        let mut updated = c.clone();
        let out_original = updated.access_block(b);
        let lhs = shifted(&updated, 3);
        let mut rhs = shifted(&c, 3);
        let out_renamed = rhs.access_block(MemBlock(b.0 + 3));
        assert_eq!(out_original, out_renamed);
        assert_eq!(lhs, rhs);
    }
}
