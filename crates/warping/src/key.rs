//! Rotation-invariant canonical keys of symbolic cache states.
//!
//! Two symbolic cache states recorded at different iterations of the same
//! loop are candidates for warping when they are equal up to a rotation of
//! their cache sets and a uniform shift of the warped loop iterator in their
//! symbolic labels (Theorem 3 of the paper).  The canonical key makes such
//! states compare equal:
//!
//! * the enumeration of cache sets starts at the most-recently-accessed set
//!   and cycles around, which factors out set rotations;
//! * labels of access nodes that are descendants of the warping loop are
//!   stored relative to a **per-level normaliser** — the level's
//!   [epoch](crate::symstate::SymLevel::epoch_at) on the warped dimension,
//!   i.e. the warped-iterator stamp of the last access that wrote a label
//!   at that level — which factors out the iterator shift *per level*;
//! * replacement-policy metadata is included verbatim, since matching states
//!   must agree on it exactly.
//!
//! Normalising by the level epoch instead of the current iterator value is
//! what lets L1-resident kernels warp over big hierarchies: a level whose
//! lines stopped being touched (the working set fits further in) keeps a
//! frozen epoch next to its frozen labels, so the deltas — and hence the
//! key — stay constant across iterations, where deltas from the *current*
//! iterator would drift and physically identical states would never
//! compare equal.  The per-level shift the normalisers factored out is not
//! lost: the match bookkeeping remembers each entry's normalisers, and warp
//! planning reconstructs the true per-level label shift from them (see
//! [`plan`](crate::plan)).  Labels of non-descendant (stale) nodes remain
//! absolute: no uniform shift ever applies to them, so matching states must
//! agree on them exactly.
//!
//! The key is an exact encoding (not just a hash), so key equality implies
//! symbolic equality — hash collisions cannot cause unsound warps.
//!
//! # Sparse encoding
//!
//! Only the *occupied* sets are encoded, each prefixed by its rotational
//! offset from the most-recently-used set.  Cache sets are filled and
//! replaced but never emptied, so an empty set is guaranteed to be in its
//! initial state (no lines, initial policy metadata): two states whose
//! occupied sets sit at the same offsets with equal content are therefore
//! equal everywhere.  This makes key construction O(occupied sets) — on a
//! kernel touching a handful of sets, the cost no longer scales with the
//! total number of sets of a large outer level.

use crate::symstate::{SymLevel, SymSet};
use cache_model::{FlatSet, ReplacementPolicy};

/// An exact, rotation- and shift-invariant encoding of one or more symbolic
/// cache levels.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CanonicalKey(Vec<i64>);

impl CanonicalKey {
    /// Builds the canonical key of a collection of cache levels for a warp
    /// attempt at a loop of depth `warp_depth`, normalising each level's
    /// descendant labels by that level's entry in `normalizers` (one value
    /// per level: the level epoch on the warped dimension, with the current
    /// iterator value as the fallback for levels that carry no usable
    /// stamp — see [`crate::simulator::WarpingSimulator`]).
    ///
    /// `descendants` are the ids of the access nodes below the loop, in
    /// ascending order: only their labels are normalised; stale labels
    /// stay absolute.
    ///
    /// # Panics
    ///
    /// Panics if `normalizers` is shorter than `levels`.
    pub fn of_levels(
        levels: &[SymLevel],
        descendants: &[usize],
        warp_depth: usize,
        normalizers: &[i64],
    ) -> Self {
        assert!(
            normalizers.len() >= levels.len(),
            "one normaliser per level"
        );
        let mut data = Vec::new();
        for (level, &normalizer) in levels.iter().zip(normalizers) {
            encode_level(level, descendants, warp_depth, normalizer, &mut data);
        }
        CanonicalKey(data)
    }
}

fn encode_level(
    level: &SymLevel,
    descendants: &[usize],
    warp_depth: usize,
    normalizer: i64,
    data: &mut Vec<i64>,
) {
    let num_sets = level.config.num_sets();
    data.push(i64::MIN + 1); // level separator
                             // Occupied sets in rotation order: ascending offset from the MRU set.
                             // Their offsets are part of the encoding, so two states only compare
                             // equal when their occupied sets line up under the same rotation; the
                             // remaining sets are empty-and-initial on both sides by construction.
    let mut offsets: Vec<(usize, SymSet<'_>)> = level
        .sets()
        .map(|set| {
            (
                (set.index() + num_sets - level.mru_set % num_sets) % num_sets,
                set,
            )
        })
        .collect();
    offsets.sort_unstable_by_key(|(offset, _)| *offset);
    for (offset, set) in offsets {
        data.push(i64::MIN + 2); // set separator
        data.push(offset as i64);
        for line in set.lines() {
            match line {
                None => data.push(i64::MIN + 3),
                Some(l) => {
                    data.push(l.node as i64);
                    let normalise =
                        descendants.binary_search(&l.node).is_ok() && l.iter.len() >= warp_depth;
                    for (d, v) in l.iter.iter().enumerate() {
                        if normalise && d == warp_depth - 1 {
                            data.push(v - normalizer);
                        } else {
                            data.push(*v);
                        }
                    }
                    data.push(i64::MIN + 4); // label terminator
                }
            }
        }
        encode_policy_state(set.flat(), data);
    }
}

fn encode_policy_state(set: FlatSet<'_>, data: &mut Vec<i64>) {
    match set.policy() {
        ReplacementPolicy::Lru | ReplacementPolicy::Fifo => data.push(0),
        ReplacementPolicy::Plru => {
            data.push(1);
            data.extend(set.plru_bits().map(i64::from));
        }
        ReplacementPolicy::Qlru => {
            data.push(2);
            data.extend(set.ages().iter().map(|&a| i64::from(a)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_model::{AccessKind, CacheConfig, MemBlock};

    fn level() -> SymLevel {
        SymLevel::new(CacheConfig::with_sets(4, 2, 1, ReplacementPolicy::Lru))
    }

    fn key_of(level: &SymLevel, descendants: &[usize], normalizer: i64) -> CanonicalKey {
        CanonicalKey::of_levels(std::slice::from_ref(level), descendants, 1, &[normalizer])
    }

    #[test]
    fn shifted_states_have_equal_keys() {
        // The 1D stencil pattern on a tiny cache: after iteration i the cache
        // holds A[i] and B[i-1]; states of consecutive iterations are equal
        // up to rotation and label shift.
        let descendants = [0, 1];
        let mut s1 = level();
        s1.access(MemBlock(10), AccessKind::Read, 0, &[5]);
        s1.access(MemBlock(110), AccessKind::Write, 1, &[5]);
        let mut s2 = level();
        s2.access(MemBlock(11), AccessKind::Read, 0, &[6]);
        s2.access(MemBlock(111), AccessKind::Write, 1, &[6]);
        assert_eq!(
            key_of(&s1, &descendants, 5),
            key_of(&s2, &descendants, 6),
            "states shifted by one iteration must produce identical keys"
        );
        assert_ne!(
            key_of(&s1, &descendants, 5),
            key_of(&s2, &descendants, 7),
            "a wrong iterator value breaks the match"
        );
    }

    #[test]
    fn non_descendant_labels_are_absolute() {
        let descendants: [usize; 0] = [];
        let mut s1 = level();
        s1.access(MemBlock(10), AccessKind::Read, 0, &[5]);
        let mut s2 = level();
        s2.access(MemBlock(10), AccessKind::Read, 0, &[6]);
        assert_ne!(
            key_of(&s1, &descendants, 5),
            key_of(&s2, &descendants, 6),
            "labels of non-descendant nodes must match exactly"
        );
    }

    #[test]
    fn policy_state_is_part_of_the_key() {
        let config = CacheConfig::with_sets(1, 4, 1, ReplacementPolicy::Qlru);
        let descendants = [0];
        let mut s1 = SymLevel::new(config.clone());
        let mut s2 = SymLevel::new(config);
        s1.access(MemBlock(0), AccessKind::Read, 0, &[0]);
        s2.access(MemBlock(0), AccessKind::Read, 0, &[0]);
        // Promote the block in s2 only: ages differ, keys must differ.
        s2.access(MemBlock(0), AccessKind::Read, 0, &[0]);
        let k1 = CanonicalKey::of_levels(std::slice::from_ref(&s1), &descendants, 1, &[0]);
        let k2 = CanonicalKey::of_levels(std::slice::from_ref(&s2), &descendants, 1, &[0]);
        assert_ne!(k1, k2);
    }

    #[test]
    fn frozen_levels_match_under_their_own_epoch() {
        // The L1-resident scenario: an outer level froze at iteration 5 and
        // is never touched again.  Normalised by its own (frozen) epoch the
        // key is constant across match attempts; normalised by the current
        // iterator — the pre-epoch behaviour — it drifts and never matches.
        let descendants = [0];
        let mut frozen = level();
        frozen.access(MemBlock(10), AccessKind::Read, 0, &[5]);
        let epoch = frozen.epoch_at(0).expect("the fill stamped the epoch");
        assert_eq!(epoch, 5);
        let at_iteration = |normalizer: i64| key_of(&frozen, &descendants, normalizer);
        assert_eq!(at_iteration(epoch), at_iteration(epoch));
        assert_ne!(
            at_iteration(100),
            at_iteration(200),
            "current-iterator normalisation drifts on frozen labels"
        );
    }

    #[test]
    fn different_occupancy_or_nodes_differ() {
        let descendants = [0, 1];
        let mut s1 = level();
        s1.access(MemBlock(10), AccessKind::Read, 0, &[5]);
        let mut s2 = level();
        s2.access(MemBlock(10), AccessKind::Read, 1, &[5]);
        assert_ne!(key_of(&s1, &descendants, 5), key_of(&s2, &descendants, 5));
        let empty = level();
        assert_ne!(
            key_of(&s1, &descendants, 5),
            key_of(&empty, &descendants, 5)
        );
    }

    #[test]
    fn occupied_offsets_anchor_the_rotation() {
        // Two states with equal content in their occupied sets but a
        // different offset from the MRU set must not compare equal.
        let descendants = [0];
        let mut s1 = level();
        s1.access(MemBlock(10), AccessKind::Read, 0, &[5]); // set 2, MRU 2
        let mut s2 = level();
        s2.access(MemBlock(10), AccessKind::Read, 0, &[5]); // set 2
        s2.access(MemBlock(11), AccessKind::Read, 0, &[5]); // MRU now 3
                                                            // Give s1 the same line in set 3 so occupancy matches.
        s1.access(MemBlock(11), AccessKind::Read, 0, &[5]);
        s1.access(MemBlock(10), AccessKind::Read, 0, &[5]); // MRU back to 2
        assert_ne!(
            key_of(&s1, &descendants, 5),
            key_of(&s2, &descendants, 5),
            "same occupied content at different MRU offsets must differ"
        );
    }
}
