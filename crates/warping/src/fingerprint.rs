//! Rolling fingerprints of symbolic cache levels: the cheap first phase of
//! the two-phase warp-match pipeline.
//!
//! A warp match requires two symbolic cache states to be equal up to a
//! rotation of their cache sets and a uniform shift of the warped iterator
//! (Theorem 3 of the paper).  Deciding that exactly means building a
//! [`CanonicalKey`](crate::key::CanonicalKey), which costs time proportional
//! to the occupied part of the state.  This module provides a sound
//! *filter* in front of the exact comparison: a 64-bit fingerprint that is
//! **invariant under every transformation the canonical key factors out**,
//! so
//!
//! > equal canonical keys ⟹ equal fingerprints.
//!
//! The contrapositive is what the simulator uses: when the fingerprints of
//! two states differ, no exact key needs to be built — the states cannot
//! match.  Fingerprint collisions (equal fingerprints, different states) are
//! harmless: the exact key is still consulted before any warp, so soundness
//! is entirely unaffected by hash quality.
//!
//! # The digest algebra
//!
//! Each cache set is digested into [`MAX_TRACKED_DIMS`] words, one per
//! candidate warped dimension `d` (a loop at depth `w` warps dimension
//! `w - 1`).  The digest of a set for excluded dimension `d` hashes, in line
//! order:
//!
//! * the occupancy pattern of the set and, per occupied line, the access
//!   node id and the iteration vector **without** the value at dimension
//!   `d` — a uniform shift of the warped iterator therefore cannot change
//!   the digest;
//! * the warped-dim *differences* between consecutive occupied lines that
//!   carry the **same access node** — see below;
//! * the *differences* between the concrete block numbers of consecutive
//!   occupied lines — a uniform block shift (the `π` of the warping theorem)
//!   leaves differences unchanged while still discriminating states whose
//!   line phase differs;
//! * the replacement-policy metadata verbatim, since matching states must
//!   agree on it exactly.
//!
//! # Why exclusion (not epoch deltas) encodes the warped dimension
//!
//! The canonical key normalises each level's descendant labels by the
//! *level epoch* — the warped-iterator stamp of the last label write at
//! that level — so key equality means "labels shifted uniformly per level"
//! (by the period for live levels, by zero for frozen ones).  A digest that
//! mixed in raw warped-dim values would break under either shift; a digest
//! that mixed in deltas from the epoch could not be maintained
//! incrementally, because every access moves the epoch and would dirty the
//! digests of *all* occupied sets.  Dropping the warped-dim value is
//! invariant under **any** uniform per-level shift — live, frozen, or
//! anything the key might factor out in the future — at zero incremental
//! cost.  The discrimination this gives up is partly recovered soundly:
//! two consecutive occupied lines labelled by the *same* node are either
//! both descendants of the warping loop or both stale, so their warped-dim
//! difference survives every transformation the key factors out (the shift
//! cancels pairwise) and can be hashed without risking a missed match.
//!
//! The level fingerprint is the wrapping **sum** of the per-set digests.
//! Summation is commutative, so rotating the sets — which permutes them —
//! cannot change the fingerprint.  (The sum is invariant under arbitrary
//! permutations, a superset of rotations: more collisions, still sound.)
//!
//! # Incrementality
//!
//! [`FingerprintTracker`] maintains the per-set digests and their sums
//! across state mutations with dirty-set tracking: an access dirties one
//! set (detected via the [content
//! version](cache_model::SetState::content_version) hook of the cache
//! crate), a warp dirties the occupied sets and *rotates* the stored digest
//! array alongside the state (the sums are unchanged by rotation).  Dirty
//! digests are recomputed lazily when a fingerprint is next requested, so
//! the cost of keeping fingerprints fresh is proportional to the number of
//! sets touched since the last match attempt — not to the total number of
//! sets of an 8 MiB L3.

use crate::symstate::SymLine;
use cache_model::{
    CacheState, FlatLevel, FlatSet, MemBlock, PolicyState, ReplacementPolicy, SetState,
};
use std::collections::{HashMap, HashSet};

/// Number of candidate warped dimensions a digest covers.  Loops nested
/// deeper than this cannot use the fingerprint filter and fall back to
/// exhaustive exact-key matching (sound, just slower); PolyBench-style
/// kernels are at most three deep.
pub const MAX_TRACKED_DIMS: usize = 4;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const TAG_EMPTY_LINE: u64 = 0x9e37;
const TAG_LINE: u64 = 0x85eb;
const TAG_POLICY: [u64; 3] = [0x27d4, 0xeb2f, 0x1656];

#[inline]
fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// Final avalanche (SplitMix64), so that wrapping-add combination of set
/// digests does not cancel structured low-entropy inputs.
#[inline]
fn finalize(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// The digest of one cache set: one word per excluded (candidate warped)
/// dimension.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SetDigest([u64; MAX_TRACKED_DIMS]);

impl SetDigest {
    /// The digest word for excluded dimension `d`.
    pub fn word(&self, d: usize) -> u64 {
        self.0[d]
    }
}

/// Digests one set of a symbolic cache state.  See the module documentation
/// for the invariances this encoding guarantees.
pub fn digest_set(set: &SetState<SymLine>) -> SetDigest {
    let mut words = [FNV_OFFSET; MAX_TRACKED_DIMS];
    let mut prev_block: Option<u64> = None;
    let mut prev_line: Option<&SymLine> = None;
    for line in set.lines() {
        match line {
            None => {
                for w in &mut words {
                    *w = mix(*w, TAG_EMPTY_LINE);
                }
            }
            Some(l) => {
                for w in &mut words {
                    *w = mix(*w, TAG_LINE);
                    *w = mix(*w, l.node as u64);
                    *w = mix(*w, l.iter.len() as u64);
                }
                for (k, v) in l.iter.iter().enumerate() {
                    for (d, w) in words.iter_mut().enumerate() {
                        if k != d {
                            *w = mix(*w, *v as u64);
                        }
                    }
                }
                // The excluded dimension re-enters as a pairwise difference
                // when the neighbouring line carries the same node: the pair
                // is then uniformly both-descendant or both-stale, so every
                // label shift the canonical key factors out cancels.
                if let Some(p) = prev_line {
                    if p.node == l.node {
                        for (d, w) in words.iter_mut().enumerate() {
                            if let (Some(a), Some(b)) = (l.iter.get(d), p.iter.get(d)) {
                                *w = mix(*w, a.wrapping_sub(*b) as u64);
                            }
                        }
                    }
                }
                // Consecutive block differences are invariant under the
                // uniform block shift of a warp; absolute blocks are not.
                if let Some(prev) = prev_block {
                    let diff = l.block.0.wrapping_sub(prev);
                    for w in &mut words {
                        *w = mix(*w, diff);
                    }
                }
                prev_block = Some(l.block.0);
                prev_line = Some(l);
            }
        }
    }
    match set.policy_state() {
        PolicyState::None => {
            for w in &mut words {
                *w = mix(*w, TAG_POLICY[0]);
            }
        }
        PolicyState::PlruBits(bits) => {
            for w in &mut words {
                *w = mix(*w, TAG_POLICY[1]);
                for b in bits {
                    *w = mix(*w, u64::from(*b));
                }
            }
        }
        PolicyState::Ages(ages) => {
            for w in &mut words {
                *w = mix(*w, TAG_POLICY[2]);
                for a in ages {
                    *w = mix(*w, u64::from(*a));
                }
            }
        }
    }
    for w in &mut words {
        *w = finalize(*w);
    }
    SetDigest(words)
}

/// Digests one set of a *concrete* cache state (payload = memory blocks
/// instead of symbolic lines).  The encoding mirrors [`digest_set`]'s
/// shift-invariant core: the occupancy pattern, the pairwise differences of
/// consecutive occupied blocks (invariant under a uniform block shift) and
/// the replacement-policy metadata verbatim.  Absolute block numbers are
/// deliberately dropped, so a streaming kernel that advances through memory
/// at a constant rate digests identically from one period to the next.
///
/// This is the reference encoding over [`SetState`]; [`digest_flat_set`]
/// computes the same value on the flat concrete store.
pub fn digest_concrete_set(set: &SetState<MemBlock>) -> u64 {
    let lines = set.lines().iter().copied();
    match set.policy_state() {
        PolicyState::None => digest_concrete(lines, 0, std::iter::empty()),
        PolicyState::PlruBits(bits) => digest_concrete(lines, 1, bits.iter().map(|&b| b.into())),
        PolicyState::Ages(ages) => digest_concrete(lines, 2, ages.iter().map(|&a| a.into())),
    }
}

/// [`digest_concrete_set`] on one occupied set of a [`FlatLevel`]: the same
/// `u64` as the digest of the equivalent [`SetState`].
pub fn digest_flat_set(set: &FlatSet<'_>) -> u64 {
    let lines = set.lines();
    match set.policy() {
        ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
            digest_concrete(lines, 0, std::iter::empty())
        }
        ReplacementPolicy::Plru => digest_concrete(lines, 1, set.plru_bits().map(u64::from)),
        ReplacementPolicy::Qlru => digest_concrete(lines, 2, set.ages().iter().map(|&a| a.into())),
    }
}

/// The concrete-set encoding shared by [`digest_concrete_set`] and
/// [`digest_flat_set`]: the lines in policy order, then the policy tag
/// (`TAG_POLICY[policy]`) and its metadata words (PLRU tree bits or QLRU
/// ages; none for LRU/FIFO).
fn digest_concrete(
    lines: impl Iterator<Item = Option<MemBlock>>,
    policy: usize,
    metadata: impl Iterator<Item = u64>,
) -> u64 {
    let mut h = FNV_OFFSET;
    let mut prev_block: Option<u64> = None;
    for line in lines {
        match line {
            None => h = mix(h, TAG_EMPTY_LINE),
            Some(block) => {
                h = mix(h, TAG_LINE);
                if let Some(prev) = prev_block {
                    h = mix(h, block.0.wrapping_sub(prev));
                }
                prev_block = Some(block.0);
            }
        }
    }
    h = mix(h, TAG_POLICY[policy]);
    for word in metadata {
        h = mix(h, word);
    }
    finalize(h)
}

/// A shift- and rotation-invariant fingerprint of a whole concrete
/// hierarchy (per-level flat stores, L1 first).  Per level the
/// occupied-set digests are combined by wrapping sum — invariant under any
/// permutation of the sets, a superset of the rotations a moving working
/// set induces — plus the occupied-set count; levels are then mixed in
/// order.
///
/// Interval samplers use this as the boundary detector: when the
/// fingerprint at the end of outer iteration `t` equals the one at
/// `t - p`, the cache is plausibly `p`-periodic and `p` outer iterations
/// make a representative interval.  Collisions merely pick a poorer
/// interval; counts are still measured, so accuracy is unaffected.
pub fn concrete_fingerprint(levels: &[FlatLevel]) -> u64 {
    let mut h = FNV_OFFSET;
    for level in levels {
        let mut sum = 0u64;
        for set in level.occupied_sets() {
            sum = sum.wrapping_add(digest_flat_set(&set));
        }
        h = mix(h, sum);
        h = mix(h, level.occupied_len() as u64);
    }
    finalize(h)
}

/// Rebuilds the level fingerprint words from scratch — the reference the
/// incremental [`FingerprintTracker`] is tested against.
pub fn rebuild_level_fingerprint(state: &CacheState<SymLine>) -> [u64; MAX_TRACKED_DIMS] {
    let mut sums = [0u64; MAX_TRACKED_DIMS];
    for (_, set) in state.sets() {
        let digest = digest_set(set);
        for (s, w) in sums.iter_mut().zip(digest.0) {
            *s = s.wrapping_add(w);
        }
    }
    sums
}

/// Incrementally maintained per-set digests and rolling level fingerprints
/// of one symbolic cache level.
///
/// The tracker mirrors the cache state's sparse representation: digests are
/// stored only for sets whose content diverged from the shared empty
/// template, so construction is O(1) and memory is proportional to the
/// sets ever touched — not to the total number of sets of a 64 MiB level.
#[derive(Clone, Debug)]
pub struct FingerprintTracker {
    /// The digest every set in its initial (empty) state shares.
    empty: SetDigest,
    /// Digests of sets that diverged from the empty template.
    digests: HashMap<usize, SetDigest>,
    dirty_flag: HashSet<usize>,
    dirty: Vec<usize>,
    sums: [u64; MAX_TRACKED_DIMS],
}

impl FingerprintTracker {
    /// A tracker over a fresh (all-empty) state.  Every set of a fresh
    /// state is identical, so one template digest covers them all and
    /// construction does no per-set digesting or allocation.
    pub fn new(state: &CacheState<SymLine>) -> Self {
        let empty = digest_set(state.set(0));
        debug_assert!(state.occupied_indices().next().is_none());
        let num_sets = state.num_sets();
        let mut sums = [0u64; MAX_TRACKED_DIMS];
        for (s, w) in sums.iter_mut().zip(empty.0) {
            *s = w.wrapping_mul(num_sets as u64);
        }
        FingerprintTracker {
            empty,
            digests: HashMap::new(),
            dirty_flag: HashSet::new(),
            dirty: Vec::new(),
            sums,
        }
    }

    /// Marks one set's digest as possibly stale.
    pub fn mark_dirty(&mut self, set: usize) {
        if self.dirty_flag.insert(set) {
            self.dirty.push(set);
        }
    }

    /// Recomputes the digests of all dirty sets and updates the rolling
    /// sums.  O(dirty sets), independent of the total number of sets.
    ///
    /// Every dirty set is recomputed unconditionally: content versions are
    /// only comparable within one `SetState` instance, and warp application
    /// replaces sets wholesale (resetting their version), so a version
    /// match across a flush proves nothing about staleness.
    pub fn flush(&mut self, state: &CacheState<SymLine>) {
        for &s in &self.dirty {
            self.dirty_flag.remove(&s);
            let set = state.set(s);
            let digest = digest_set(set);
            // A set a warp vacated reverts to the shared empty digest; drop
            // its entry so the map tracks only diverged sets.
            let old = if set.is_empty() && digest == self.empty {
                self.digests.remove(&s).unwrap_or(self.empty)
            } else {
                self.digests.insert(s, digest).unwrap_or(self.empty)
            };
            for ((sum, old), new) in self.sums.iter_mut().zip(old.0).zip(digest.0) {
                *sum = sum.wrapping_sub(old).wrapping_add(new);
            }
        }
        self.dirty.clear();
    }

    /// Whether all digests are up to date (no pending dirty sets).
    pub fn is_flushed(&self) -> bool {
        self.dirty.is_empty()
    }

    /// The rolling level fingerprint for excluded dimension `d`, or `None`
    /// when `d` is beyond [`MAX_TRACKED_DIMS`] (the caller then falls back
    /// to exhaustive exact-key matching).
    ///
    /// # Panics
    ///
    /// Debug-asserts that the tracker has been [flushed](Self::flush).
    pub fn fingerprint(&self, d: usize) -> Option<u64> {
        debug_assert!(self.is_flushed(), "fingerprint read from a dirty tracker");
        self.sums.get(d).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_model::{MemBlock, ReplacementPolicy};

    fn line(node: usize, iter: &[i64], block: u64) -> SymLine {
        SymLine {
            block: MemBlock(block),
            node,
            iter: iter.to_vec(),
        }
    }

    fn set_of(lines: &[Option<SymLine>]) -> SetState<SymLine> {
        let mut set = SetState::new(ReplacementPolicy::Lru, lines.len());
        // Insert back to front so the final line order matches `lines`.
        for l in lines.iter().rev().flatten() {
            set.on_miss_insert(ReplacementPolicy::Lru, l.clone());
        }
        set
    }

    #[test]
    fn digest_excludes_only_the_excluded_dim() {
        let a = set_of(&[Some(line(0, &[5, 7], 10)), None]);
        let b = set_of(&[Some(line(0, &[6, 7], 10)), None]);
        let c = set_of(&[Some(line(0, &[5, 8], 10)), None]);
        // Shifting dim 0 changes every word except word 0.
        assert_eq!(digest_set(&a).word(0), digest_set(&b).word(0));
        assert_ne!(digest_set(&a).word(1), digest_set(&b).word(1));
        // Shifting dim 1 changes every word except word 1.
        assert_eq!(digest_set(&a).word(1), digest_set(&c).word(1));
        assert_ne!(digest_set(&a).word(0), digest_set(&c).word(0));
    }

    #[test]
    fn digest_is_invariant_under_uniform_block_shift() {
        let a = set_of(&[Some(line(0, &[5], 10)), Some(line(1, &[5], 26))]);
        let b = set_of(&[Some(line(0, &[6], 14)), Some(line(1, &[6], 30))]);
        assert_eq!(digest_set(&a).word(0), digest_set(&b).word(0));
        // A non-uniform shift changes the block differences.
        let c = set_of(&[Some(line(0, &[6], 14)), Some(line(1, &[6], 34))]);
        assert_ne!(digest_set(&a).word(0), digest_set(&c).word(0));
    }

    #[test]
    fn same_node_warped_dim_spacing_is_hashed_shift_invariantly() {
        // Two same-node lines: their warped-dim spacing discriminates (word
        // 0 differs between spacing 1 and spacing 2) ...
        let a = set_of(&[Some(line(0, &[5], 10)), Some(line(0, &[4], 26))]);
        let b = set_of(&[Some(line(0, &[5], 10)), Some(line(0, &[3], 26))]);
        assert_ne!(digest_set(&a).word(0), digest_set(&b).word(0));
        // ... while a uniform label shift — what the epoch-relative key
        // factors out, for live and frozen levels alike — cancels pairwise.
        let shifted = set_of(&[Some(line(0, &[9], 10)), Some(line(0, &[8], 26))]);
        assert_eq!(digest_set(&a).word(0), digest_set(&shifted).word(0));
        // Mixed-node neighbours contribute no pair: one side could be a
        // stale (absolute) label, so their spacing must stay out of the
        // digest to preserve "equal keys ⟹ equal fingerprints".
        let c = set_of(&[Some(line(0, &[5], 10)), Some(line(1, &[4], 26))]);
        let d = set_of(&[Some(line(0, &[5], 10)), Some(line(1, &[3], 26))]);
        assert_eq!(digest_set(&c).word(0), digest_set(&d).word(0));
        assert_ne!(
            digest_set(&c).word(1),
            digest_set(&d).word(1),
            "other words still see the absolute value"
        );
    }

    #[test]
    fn digest_discriminates_nodes_occupancy_and_policy() {
        let a = set_of(&[Some(line(0, &[5], 10)), None]);
        let other_node = set_of(&[Some(line(1, &[5], 10)), None]);
        let empty = set_of(&[None, None]);
        assert_ne!(digest_set(&a).word(0), digest_set(&other_node).word(0));
        assert_ne!(digest_set(&a).word(0), digest_set(&empty).word(0));

        let mut qlru = SetState::new(ReplacementPolicy::Qlru, 2);
        qlru.on_miss_insert(ReplacementPolicy::Qlru, line(0, &[5], 10));
        let once = digest_set(&qlru);
        qlru.on_hit(ReplacementPolicy::Qlru, 0); // age 2 -> 0
        assert_ne!(once.word(0), digest_set(&qlru).word(0));
    }

    #[test]
    fn concrete_fingerprint_is_shift_invariant_and_discriminating() {
        use cache_model::CacheConfig;
        let config = CacheConfig::with_sets(8, 2, 64, ReplacementPolicy::Lru);
        let touch = |blocks: &[u64]| {
            let mut level = FlatLevel::new(&config);
            for &b in blocks {
                level.access(MemBlock(b), true);
            }
            level
        };
        // A streaming working set and the same set shifted uniformly by a
        // whole number of blocks digest identically: the set indices rotate
        // (the sum is permutation-invariant) and the in-set block diffs are
        // unchanged.
        let a = touch(&[0, 1, 2, 3]);
        let shifted = touch(&[16, 17, 18, 19]);
        assert_eq!(
            concrete_fingerprint(std::slice::from_ref(&a)),
            concrete_fingerprint(std::slice::from_ref(&shifted))
        );
        // A different occupancy pattern or a different access order
        // (policy order differs) changes the fingerprint.
        let fewer = touch(&[0, 1, 2]);
        assert_ne!(
            concrete_fingerprint(std::slice::from_ref(&a)),
            concrete_fingerprint(std::slice::from_ref(&fewer))
        );
        let reordered = touch(&[8, 1, 2, 3, 0, 8]);
        assert_ne!(
            concrete_fingerprint(std::slice::from_ref(&a)),
            concrete_fingerprint(std::slice::from_ref(&reordered))
        );
        // Levels are order-sensitive: (a, fewer) != (fewer, a).
        assert_ne!(
            concrete_fingerprint(&[a.clone(), fewer.clone()]),
            concrete_fingerprint(&[fewer, a])
        );
    }

    /// The flat-store fingerprint is the one the `SetState` reference
    /// encoding gives over the same accesses, for every policy (including
    /// multi-word PLRU tree bits), so sampled interval choices do not
    /// depend on the store.
    #[test]
    fn concrete_fingerprint_equals_the_set_state_reference() {
        use cache_model::CacheConfig;
        let reference = |levels: &[CacheState<MemBlock>]| {
            let mut h = FNV_OFFSET;
            for state in levels {
                let mut sum = 0u64;
                for (_, set) in state.occupied_entries() {
                    sum = sum.wrapping_add(digest_concrete_set(set));
                }
                h = mix(h, sum);
                h = mix(h, state.occupied_len() as u64);
            }
            finalize(h)
        };
        for policy in ReplacementPolicy::ALL {
            for (sets, assoc) in [(8, 2), (3, 4), (1, 128)] {
                let configs = [
                    CacheConfig::with_sets(sets, assoc, 64, policy),
                    CacheConfig::with_sets(sets * 2, assoc, 64, policy),
                ];
                let mut flat: Vec<FlatLevel> = configs.iter().map(FlatLevel::new).collect();
                let mut sparse: Vec<CacheState<MemBlock>> =
                    configs.iter().map(CacheState::new).collect();
                let mut x = 7u64;
                for step in 0..600 {
                    // A small LCG over a working set larger than the levels.
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let block = MemBlock((x >> 33) % 300);
                    cache_model::walk_access(configs.iter().zip(sparse.iter_mut()), block, true);
                    for level in &mut flat {
                        if level.access(block, true) {
                            break;
                        }
                    }
                    if step % 50 == 0 {
                        assert_eq!(
                            concrete_fingerprint(&flat),
                            reference(&sparse),
                            "{policy} {sets}x{assoc} after {step} accesses"
                        );
                    }
                }
            }
        }
    }
}
