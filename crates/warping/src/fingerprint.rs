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
//! [`FingerprintTracker`] maintains one digest per row of a symbolic level
//! (a row is an occupied set; every other set shares the empty set's
//! digest) and their sums, with a per-row dirty bit and a list of the dirty
//! rows.  The level marks a row dirty whenever it writes a label there — a
//! hit promotion or a fill — and a warp marks every row dirty, since it
//! shifts tags and labels in place.  Rotating the sets moves no row and
//! leaves every sum unchanged.  Dirty digests are recomputed lazily when a
//! fingerprint is next requested, so the cost of keeping fingerprints
//! fresh is proportional to the number of rows touched since the last
//! match attempt — not to the total number of sets of an 8 MiB L3.

use crate::symstate::{SymLabel, SymLevel, SymSet};
use cache_model::{
    CacheConfig, FlatLevel, FlatSet, MemBlock, PolicyState, ReplacementPolicy, SetState,
};

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

/// Digests one occupied set of a symbolic level.  See the module
/// documentation for the invariances this encoding guarantees.
pub fn digest_set(set: &SymSet<'_>) -> SetDigest {
    let flat = set.flat();
    match flat.policy() {
        ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
            digest_words(set.lines(), 0, std::iter::empty())
        }
        ReplacementPolicy::Plru => digest_words(set.lines(), 1, flat.plru_bits().map(u64::from)),
        ReplacementPolicy::Qlru => {
            digest_words(set.lines(), 2, flat.ages().iter().map(|&a| a.into()))
        }
    }
}

/// [`digest_set`] on a set given as its labelled lines in policy order and
/// its policy metadata in the reference representation: the same digest
/// for the same content, whatever store holds it.
pub fn digest_lines<'a>(
    lines: impl IntoIterator<Item = Option<SymLabel<'a>>>,
    policy: &PolicyState,
) -> SetDigest {
    match policy {
        PolicyState::None => digest_words(lines, 0, std::iter::empty()),
        PolicyState::PlruBits(bits) => digest_words(lines, 1, bits.iter().map(|&b| b.into())),
        PolicyState::Ages(ages) => digest_words(lines, 2, ages.iter().map(|&a| a.into())),
    }
}

/// The symbolic-set encoding shared by [`digest_set`] and
/// [`digest_lines`]: the labelled lines in policy order, then the policy
/// tag (`TAG_POLICY[policy]`) and its metadata words (PLRU tree bits or
/// QLRU ages; none for LRU/FIFO).
fn digest_words<'a>(
    lines: impl IntoIterator<Item = Option<SymLabel<'a>>>,
    policy: usize,
    metadata: impl Iterator<Item = u64>,
) -> SetDigest {
    let mut words = [FNV_OFFSET; MAX_TRACKED_DIMS];
    let mut prev: Option<SymLabel<'a>> = None;
    for line in lines {
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
                if let Some(p) = prev {
                    // The excluded dimension re-enters as a pairwise
                    // difference when the neighbouring line carries the
                    // same node: the pair is then uniformly both-descendant
                    // or both-stale, so every label shift the canonical key
                    // factors out cancels.
                    if p.node == l.node {
                        for (d, w) in words.iter_mut().enumerate() {
                            if let (Some(a), Some(b)) = (l.iter.get(d), p.iter.get(d)) {
                                *w = mix(*w, a.wrapping_sub(*b) as u64);
                            }
                        }
                    }
                    // Consecutive block differences are invariant under the
                    // uniform block shift of a warp; absolute blocks are not.
                    let diff = l.block.0.wrapping_sub(p.block.0);
                    for w in &mut words {
                        *w = mix(*w, diff);
                    }
                }
                prev = Some(l);
            }
        }
    }
    for w in &mut words {
        *w = mix(*w, TAG_POLICY[policy]);
    }
    for word in metadata {
        for w in &mut words {
            *w = mix(*w, word);
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

/// Rebuilds the level fingerprint words of a symbolic level from scratch —
/// the reference the incremental [`FingerprintTracker`] is tested against.
pub fn rebuild_level_fingerprint(level: &SymLevel) -> [u64; MAX_TRACKED_DIMS] {
    let empty = empty_digest(&level.config);
    let untouched = (level.config.num_sets() - level.occupied_len()) as u64;
    let mut sums = empty.0.map(|w| w.wrapping_mul(untouched));
    for set in level.sets() {
        for (s, w) in sums.iter_mut().zip(digest_set(&set).0) {
            *s = s.wrapping_add(w);
        }
    }
    sums
}

/// The digest every never-filled set of a level with geometry `config`
/// shares: empty lines and the initial policy metadata.
fn empty_digest(config: &CacheConfig) -> SetDigest {
    digest_lines(
        std::iter::repeat_n(None, config.assoc()),
        &config.policy().initial_state(config.assoc()),
    )
}

/// Incrementally maintained per-row digests and rolling level fingerprints
/// of one symbolic level.
///
/// Digests are kept for the level's rows (its occupied sets, in first-fill
/// order) in a `Vec`, with a per-row dirty bit and a list of the dirty
/// rows; every never-filled set shares one template digest.  Construction
/// is O(1) and memory is proportional to the rows — not to the total
/// number of sets of a 64 MiB level.
#[derive(Clone, Debug)]
pub struct FingerprintTracker {
    /// The digest every set in its initial (empty) state shares.
    empty: SetDigest,
    /// One digest per row, current unless the row is dirty.
    digests: Vec<SetDigest>,
    /// One dirty bit per row.
    dirty: Vec<bool>,
    /// The rows whose dirty bit is set.
    dirty_rows: Vec<usize>,
    sums: [u64; MAX_TRACKED_DIMS],
}

impl FingerprintTracker {
    /// A tracker over an empty level with geometry `config`.  Every set of
    /// an empty level is identical, so one template digest covers them all
    /// and construction does no per-set digesting or allocation.
    pub fn new(config: &CacheConfig) -> Self {
        let empty = empty_digest(config);
        let num_sets = config.num_sets() as u64;
        FingerprintTracker {
            empty,
            digests: Vec::new(),
            dirty: Vec::new(),
            dirty_rows: Vec::new(),
            sums: empty.0.map(|w| w.wrapping_mul(num_sets)),
        }
    }

    /// Marks one row's digest as possibly stale.  A row beyond the ones
    /// seen so far is new: its set was in the initial state until now.
    #[inline]
    pub fn mark_dirty(&mut self, row: usize) {
        if row >= self.digests.len() {
            self.digests.resize(row + 1, self.empty);
            self.dirty.resize(row + 1, false);
        }
        if !self.dirty[row] {
            self.dirty[row] = true;
            self.dirty_rows.push(row);
        }
    }

    /// Recomputes the digests of all dirty rows with `digest` and updates
    /// the rolling sums.  O(dirty rows), independent of the total number
    /// of sets.
    pub fn flush(&mut self, mut digest: impl FnMut(usize) -> SetDigest) {
        for &row in &self.dirty_rows {
            self.dirty[row] = false;
            let new = digest(row);
            let old = std::mem::replace(&mut self.digests[row], new);
            for ((sum, old), new) in self.sums.iter_mut().zip(old.0).zip(new.0) {
                *sum = sum.wrapping_sub(old).wrapping_add(new);
            }
        }
        self.dirty_rows.clear();
    }

    /// Whether all digests are up to date (no pending dirty rows).
    pub fn is_flushed(&self) -> bool {
        self.dirty_rows.is_empty()
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

    /// A reference line: `(block, node, iter)`.
    type Line = (u64, usize, Vec<i64>);

    fn line(node: usize, iter: &[i64], block: u64) -> Line {
        (block, node, iter.to_vec())
    }

    fn set_of(lines: &[Option<Line>]) -> SetState<Line> {
        let mut set = SetState::new(ReplacementPolicy::Lru, lines.len());
        // Insert back to front so the final line order matches `lines`.
        for l in lines.iter().rev().flatten() {
            set.on_miss_insert(ReplacementPolicy::Lru, l.clone());
        }
        set
    }

    fn digest(set: &SetState<Line>) -> SetDigest {
        let lines = set.lines().iter().map(|l| {
            l.as_ref().map(|(block, node, iter)| SymLabel {
                block: MemBlock(*block),
                node: *node,
                iter,
            })
        });
        digest_lines(lines, set.policy_state())
    }

    /// The digest words of a fixed access history, for every policy, as
    /// the set-by-set store computed them: fingerprints (and so every
    /// match-map slot) do not depend on the store.
    #[test]
    fn digest_words_are_pinned() {
        use cache_model::AccessKind;
        let pinned = [
            (ReplacementPolicy::Lru, 0xa7f1_fcd6_3430_fd3d_u64),
            (ReplacementPolicy::Fifo, 0x2ad6_916b_0f6f_b549),
            (ReplacementPolicy::Plru, 0x5bc9_d379_1a37_2566),
            (ReplacementPolicy::Qlru, 0x3030_4b8d_7b83_f934),
        ];
        for (policy, expected) in pinned {
            let mut level = SymLevel::new(CacheConfig::with_sets(4, 4, 64, policy));
            let mut x = 12345u64;
            let mut fold = 0u64;
            for step in 0..400u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let depth = 1 + ((x >> 24) % 3) as usize;
                let iter: Vec<i64> = (0..depth)
                    .map(|d| ((x >> (40 + 3 * d)) % 7) as i64 - 2)
                    .collect();
                let kind = if (x >> 50).is_multiple_of(4) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let node = ((x >> 20) % 3) as usize;
                level.access(MemBlock((x >> 33) % 40), kind, node, &iter);
                if step % 97 == 96 {
                    level.prepare_match();
                    for d in 0..MAX_TRACKED_DIMS {
                        let word = level.fingerprint(d).unwrap();
                        fold = (fold ^ word).wrapping_mul(FNV_PRIME).rotate_left(7);
                    }
                }
            }
            assert_eq!(fold, expected, "{policy}");
        }
    }

    #[test]
    fn digest_excludes_only_the_excluded_dim() {
        let a = set_of(&[Some(line(0, &[5, 7], 10)), None]);
        let b = set_of(&[Some(line(0, &[6, 7], 10)), None]);
        let c = set_of(&[Some(line(0, &[5, 8], 10)), None]);
        // Shifting dim 0 changes every word except word 0.
        assert_eq!(digest(&a).word(0), digest(&b).word(0));
        assert_ne!(digest(&a).word(1), digest(&b).word(1));
        // Shifting dim 1 changes every word except word 1.
        assert_eq!(digest(&a).word(1), digest(&c).word(1));
        assert_ne!(digest(&a).word(0), digest(&c).word(0));
    }

    #[test]
    fn digest_is_invariant_under_uniform_block_shift() {
        let a = set_of(&[Some(line(0, &[5], 10)), Some(line(1, &[5], 26))]);
        let b = set_of(&[Some(line(0, &[6], 14)), Some(line(1, &[6], 30))]);
        assert_eq!(digest(&a).word(0), digest(&b).word(0));
        // A non-uniform shift changes the block differences.
        let c = set_of(&[Some(line(0, &[6], 14)), Some(line(1, &[6], 34))]);
        assert_ne!(digest(&a).word(0), digest(&c).word(0));
    }

    #[test]
    fn same_node_warped_dim_spacing_is_hashed_shift_invariantly() {
        // Two same-node lines: their warped-dim spacing discriminates (word
        // 0 differs between spacing 1 and spacing 2) ...
        let a = set_of(&[Some(line(0, &[5], 10)), Some(line(0, &[4], 26))]);
        let b = set_of(&[Some(line(0, &[5], 10)), Some(line(0, &[3], 26))]);
        assert_ne!(digest(&a).word(0), digest(&b).word(0));
        // ... while a uniform label shift — what the epoch-relative key
        // factors out, for live and frozen levels alike — cancels pairwise.
        let shifted = set_of(&[Some(line(0, &[9], 10)), Some(line(0, &[8], 26))]);
        assert_eq!(digest(&a).word(0), digest(&shifted).word(0));
        // Mixed-node neighbours contribute no pair: one side could be a
        // stale (absolute) label, so their spacing must stay out of the
        // digest to preserve "equal keys ⟹ equal fingerprints".
        let c = set_of(&[Some(line(0, &[5], 10)), Some(line(1, &[4], 26))]);
        let d = set_of(&[Some(line(0, &[5], 10)), Some(line(1, &[3], 26))]);
        assert_eq!(digest(&c).word(0), digest(&d).word(0));
        assert_ne!(
            digest(&c).word(1),
            digest(&d).word(1),
            "other words still see the absolute value"
        );
    }

    #[test]
    fn digest_discriminates_nodes_occupancy_and_policy() {
        let a = set_of(&[Some(line(0, &[5], 10)), None]);
        let other_node = set_of(&[Some(line(1, &[5], 10)), None]);
        let empty = set_of(&[None, None]);
        assert_ne!(digest(&a).word(0), digest(&other_node).word(0));
        assert_ne!(digest(&a).word(0), digest(&empty).word(0));

        let mut qlru = SetState::new(ReplacementPolicy::Qlru, 2);
        qlru.on_miss_insert(ReplacementPolicy::Qlru, line(0, &[5], 10));
        let once = digest(&qlru);
        qlru.on_hit(ReplacementPolicy::Qlru, 0); // age 2 -> 0
        assert_ne!(once.word(0), digest(&qlru).word(0));
    }

    #[test]
    fn concrete_fingerprint_is_shift_invariant_and_discriminating() {
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
        let reference = |levels: &[Vec<SetState<MemBlock>>]| {
            let mut h = FNV_OFFSET;
            for sets in levels {
                let occupied: Vec<_> = sets.iter().filter(|set| !set.is_empty()).collect();
                let sum = occupied
                    .iter()
                    .fold(0u64, |sum, set| sum.wrapping_add(digest_concrete_set(set)));
                h = mix(h, sum);
                h = mix(h, occupied.len() as u64);
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
                let mut dense: Vec<Vec<SetState<MemBlock>>> = configs
                    .iter()
                    .map(|c| vec![SetState::new(c.policy(), c.assoc()); c.num_sets()])
                    .collect();
                let mut x = 7u64;
                for step in 0..600 {
                    // A small LCG over a working set larger than the levels.
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let block = MemBlock((x >> 33) % 300);
                    // The inclusive walk: each level until one hits.
                    for (config, sets) in configs.iter().zip(&mut dense) {
                        if sets[config.index(block)].access(config.policy(), block) {
                            break;
                        }
                    }
                    for level in &mut flat {
                        if level.access(block, true) {
                            break;
                        }
                    }
                    if step % 50 == 0 {
                        assert_eq!(
                            concrete_fingerprint(&flat),
                            reference(&dense),
                            "{policy} {sets}x{assoc} after {step} accesses"
                        );
                    }
                }
            }
        }
    }
}
