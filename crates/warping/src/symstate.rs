//! Symbolic cache states.
//!
//! A symbolic cache state associates every occupied cache line with a
//! *symbolic memory block*: the identifier of the access node that loaded
//! (or most recently touched) the line together with the iteration vector at
//! which that happened.  Concretising the label — evaluating the access
//! node's affine address function at the recorded iteration — yields the
//! concrete memory block, which the state also keeps for fast
//! classification.  This mirrors §5.2 of the paper; keeping absolute
//! iteration vectors (instead of rewriting expressions on every iterator
//! increment) is the "on demand" renormalisation the paper alludes to.
//!
//! Renormalisation needs a reference point.  Each level carries a
//! **level-local epoch** (see [`SymLevel::epoch_at`]): the iteration vector
//! of the last access that wrote a label at this level, stamped on every
//! fill and hit promotion.  Labels are *stored* absolute and *compared*
//! relative to the epoch of their level — so outer-level lines whose labels
//! froze (the working set fits in L1, nothing touches them any more) still
//! compare equal across iterations, instead of drifting ever further from
//! the current iterator.
//!
//! # Layout
//!
//! A [`SymLevel`] is a flat [`FlatLevel`] — the same tag store concrete
//! simulation uses, with one update routine per replacement policy — plus
//! a **label slab** parallel to its rows.  Per way the slab holds a `u32`
//! access-node id, a `u8` label length and a fixed-width window of an `i64`
//! iteration arena, as wide as the deepest access simulated so far (a
//! deeper access re-strides the arena once).  [`FlatLevel::touch`] reports
//! where each access left its line and whether the row rotated, and the
//! slab applies the same move, so no line owns heap memory and the policy
//! logic exists once.  The epoch is a fixed buffer of the same width.
//!
//! Rows are only ever appended, so the occupied-set view costs O(occupied)
//! however many sets a level has — canonical keys and warp plans never
//! iterate over the (possibly millions of) empty sets of a big L3 — and a
//! warp moves the rows in place: it rotates the directory, shifts the tags
//! and advances the descendants' labels ([`SymLevel::apply_warp`]).  One
//! derived structure rides along: a [`FingerprintTracker`] of per-row
//! digests and rolling level fingerprints, kept fresh with per-row dirty
//! bits.

use crate::fingerprint::{digest_set, FingerprintTracker};
use cache_model::{AccessKind, CacheConfig, FlatLevel, FlatSet, LevelStats, MemBlock, Slot, Touch};
use std::fmt;

/// The symbolic label of one cached line, borrowed from its level.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SymLabel<'a> {
    /// The concrete memory block currently held by the line.
    pub block: MemBlock,
    /// Identifier of the access node that most recently touched the line.
    pub node: usize,
    /// The iteration vector (at the node's depth) of that access.
    pub iter: &'a [i64],
}

/// One cache level simulated symbolically.
#[derive(Clone)]
pub struct SymLevel {
    /// The level's configuration.
    pub config: CacheConfig,
    /// Index of the most recently accessed cache set (anchor for the
    /// rotation-invariant canonical key).
    pub mru_set: usize,
    /// Hit/miss counters of the level.
    pub stats: LevelStats,
    /// The tags and replacement-policy metadata.
    flat: FlatLevel,
    /// The labels, parallel to `flat`'s rows.
    labels: Labels,
    /// The level epoch: the iteration vector of the last label write, in
    /// the first `epoch_len` entries of a buffer `labels.width` wide
    /// (`epoch_len` is 0 until the first label write).
    epoch: Vec<i64>,
    epoch_len: usize,
    /// Incrementally maintained per-row digests and level fingerprints.
    tracker: FingerprintTracker,
}

impl SymLevel {
    /// An empty symbolic level.  Costs one zeroed directory of four bytes
    /// per set (untouched pages stay unmapped); the tags, the label slab
    /// and the fingerprint tracker grow with the rows.
    pub fn new(config: CacheConfig) -> Self {
        let flat = FlatLevel::unreserved(&config);
        let tracker = FingerprintTracker::new(&config);
        SymLevel {
            labels: Labels::new(config.assoc()),
            config,
            mru_set: 0,
            stats: LevelStats::default(),
            flat,
            epoch: Vec::new(),
            epoch_len: 0,
            tracker,
        }
    }

    /// The memory block containing byte address `addr` (a shift when the
    /// line size is a power of two).
    #[inline]
    pub fn block_of_address(&self, addr: u64) -> MemBlock {
        self.flat.block_of_address(addr)
    }

    /// Classifies and performs an access to `block`, labelling the touched
    /// line with `(node, iter)`.  Returns `true` on a hit.
    ///
    /// Every payload write — a hit promotion or a miss fill — also stamps
    /// `iter` as the level's [epoch](SymLevel::epoch_at), so the epoch
    /// always names the last access that refreshed a label at this level.
    /// For no-write-allocate configurations a write miss does not allocate
    /// (it creates no row and leaves the epoch unstamped).
    ///
    /// # Panics
    ///
    /// Panics if `node` exceeds `u32::MAX` or `iter` is deeper than 255.
    #[inline]
    pub fn access(&mut self, block: MemBlock, kind: AccessKind, node: usize, iter: &[i64]) -> bool {
        if iter.len() > self.labels.width {
            self.widen(iter.len());
        }
        self.mru_set = self.flat.index(block);
        let fill = kind != AccessKind::Write || self.config.write_allocate();
        let hit = match self.flat.touch(block, fill) {
            Touch::Hit(slot) => {
                // The paper's SymUpSet replaces the hit line's symbolic
                // block by the freshly accessed one.
                self.write_label(slot, node, iter);
                true
            }
            Touch::Fill(slot) => {
                self.write_label(slot, node, iter);
                false
            }
            Touch::Bypass => false,
        };
        self.stats.record(hit);
        hit
    }

    #[inline]
    fn write_label(&mut self, slot: Slot, node: usize, iter: &[i64]) {
        if slot.row == self.labels.rows {
            self.labels.push_row();
        }
        self.labels.write(slot, node, iter);
        copy_small(&mut self.epoch[..iter.len()], iter);
        self.epoch_len = iter.len();
        self.tracker.mark_dirty(slot.row);
    }

    /// Re-strides the label arena (and the epoch buffer) for iteration
    /// vectors `width` deep.
    #[cold]
    fn widen(&mut self, width: usize) {
        assert!(width <= usize::from(u8::MAX), "labels deeper than 255");
        self.labels.widen(width);
        self.epoch.resize(width, 0);
    }

    /// The level epoch's value on iterator dimension `dim`: the warped-dim
    /// stamp of the last access that wrote a label at this level, or `None`
    /// when no write ever reached that deep (the level is empty, or its
    /// last write came from a shallower loop).  Canonical keys encode each
    /// descendant label's warped-dim value relative to this stamp, which
    /// makes frozen labels — lines that stopped being touched because the
    /// working set fits in an inner level — shift-invariant for free.
    pub fn epoch_at(&self, dim: usize) -> Option<i64> {
        self.epoch().get(dim).copied()
    }

    /// The whole level epoch: the iteration vector of the last label write,
    /// empty if no label was ever written.
    pub fn epoch(&self) -> &[i64] {
        &self.epoch[..self.epoch_len]
    }

    /// Number of cache sets holding at least one line.
    pub fn occupied_len(&self) -> usize {
        self.flat.occupied_len()
    }

    /// Sorted indices of the cache sets holding at least one line.  Sets
    /// are filled and replaced but never emptied, so this view only grows,
    /// and every set outside it is
    /// guaranteed to be in its initial state — empty lines *and* initial
    /// replacement-policy metadata.  O(occupied · log occupied).
    pub fn occupied_sets(&self) -> impl Iterator<Item = usize> {
        let mut sets: Vec<usize> = self.sets().map(|set| set.index()).collect();
        sets.sort_unstable();
        sets.into_iter()
    }

    /// The occupied sets in row (first-fill) order.  O(occupied).
    pub fn sets(&self) -> impl Iterator<Item = SymSet<'_>> + '_ {
        (0..self.flat.occupied_len()).map(move |row| self.row(row))
    }

    /// The occupied set `idx`, or `None` if it was never filled.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn set(&self, idx: usize) -> Option<SymSet<'_>> {
        self.flat.row_of(idx).map(|row| self.row(row))
    }

    /// Row `row` (first-fill order) of the level.
    fn row(&self, row: usize) -> SymSet<'_> {
        SymSet::new(&self.flat, &self.labels, row)
    }

    /// Brings the fingerprint tracker up to date with the cache state
    /// (recomputing the digests of rows dirtied since the last call).
    /// Must be called before [`SymLevel::fingerprint`].
    pub fn prepare_match(&mut self) {
        let (flat, labels) = (&self.flat, &self.labels);
        self.tracker
            .flush(|row| digest_set(&SymSet::new(flat, labels, row)));
    }

    /// The rolling level fingerprint with iterator dimension
    /// `excluded_dim` factored out, or `None` when the dimension is beyond
    /// [`MAX_TRACKED_DIMS`](crate::fingerprint::MAX_TRACKED_DIMS).
    ///
    /// Requires a preceding [`SymLevel::prepare_match`].
    pub fn fingerprint(&self, excluded_dim: usize) -> Option<u64> {
        self.tracker.fingerprint(excluded_dim)
    }

    /// Applies a warp of `chunks` periods to the level: every line whose
    /// label belongs to one of the `descendants` access nodes (ids in
    /// ascending order; at depth
    /// `>= warp_depth`) advances its label by `chunks * period` along
    /// dimension `warp_depth - 1` and its concrete block by
    /// `total_byte_shift / line_size`, and the cache sets rotate accordingly
    /// (Equation 18 of the paper: the new state is `γ(sym-c ∘ π_Set^n)`).
    ///
    /// One in-place pass over the rows: the directory rotates, the tags
    /// shift and the labels advance; rows keep their slab positions, so
    /// the cost is O(occupied lines) whatever the number of sets.
    /// `address_of` (the byte address an access node touches at an
    /// iteration vector) is only called by debug assertions, which check
    /// that every advanced label concretises to its shifted block.
    pub fn apply_warp(
        &mut self,
        address_of: impl Fn(usize, &[i64]) -> i64,
        descendants: &[usize],
        warp_depth: usize,
        period: i64,
        chunks: i64,
        total_byte_shift: i64,
    ) {
        let line_size = self.config.line_size() as i64;
        debug_assert_eq!(total_byte_shift % line_size, 0);
        let total_block_shift = total_byte_shift / line_size;
        let num_sets = self.config.num_sets();
        // The set holding a block b now holds b + shift, and
        // (b + shift) mod S = (old index + rotation) mod S.
        let rotation = total_block_shift.rem_euclid(num_sets as i64) as usize;
        let dim = warp_depth - 1;
        let advance = chunks * period;
        let labels = &mut self.labels;
        let width = labels.width;
        self.flat
            .shift_rows(rotation, total_block_shift, |slot, block| {
                let node = labels.nodes[slot] as usize;
                let moves = usize::from(labels.lens[slot]) >= warp_depth
                    && descendants.binary_search(&node).is_ok();
                if moves {
                    let iter = &mut labels.iters[slot * width..][..usize::from(labels.lens[slot])];
                    iter[dim] += advance;
                    debug_assert_eq!(
                        address_of(node, iter) / line_size,
                        block.0 as i64 + total_block_shift,
                        "warped label concretisation must shift uniformly"
                    );
                } else {
                    debug_assert_eq!(total_block_shift, 0, "stale lines require a zero shift");
                }
                moves
            });
        for row in 0..self.flat.occupied_len() {
            self.tracker.mark_dirty(row);
        }
        self.mru_set = (self.mru_set + rotation) % num_sets;
        // The level's last label write advances with its labels: in the
        // execution the warp skipped, the corresponding access would have
        // stamped the epoch `chunks * period` iterations later.  A no-op
        // when the stamp does not reach the warped dimension — a level can
        // arrive here with such a stamp (the simulator's normaliser then
        // fell back to the current iterator, classifying it as shifted),
        // and its too-shallow stamp deliberately stays put so later
        // attempts keep using the same fallback.
        if dim < self.epoch_len {
            self.epoch[dim] += advance;
        }
    }

    /// The concrete cache state (the tags and policy metadata, without the
    /// symbolic labels).
    pub fn concrete_state(&self) -> &FlatLevel {
        &self.flat
    }
}

impl fmt::Debug for SymLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SymLevel")
            .field("config", &self.config)
            .field("mru_set", &self.mru_set)
            .field("stats", &self.stats)
            .field("epoch", &self.epoch())
            .field("sets", &self.sets().collect::<Vec<_>>())
            .finish()
    }
}

/// The label slab: per way of every row, the access node, the label
/// length and a `width`-wide window of the iteration arena.  Ways that
/// never held a line have length 0 (a real label can have length 0 too —
/// an access outside every loop — but then no warp can move it).
#[derive(Clone)]
struct Labels {
    assoc: usize,
    width: usize,
    rows: usize,
    nodes: Vec<u32>,
    lens: Vec<u8>,
    iters: Vec<i64>,
}

impl Labels {
    fn new(assoc: usize) -> Self {
        Labels {
            assoc,
            width: 0,
            rows: 0,
            nodes: Vec::new(),
            lens: Vec::new(),
            iters: Vec::new(),
        }
    }

    fn push_row(&mut self) {
        self.rows += 1;
        let ways = self.rows * self.assoc;
        self.nodes.resize(ways, 0);
        self.lens.resize(ways, 0);
        self.iters.resize(ways * self.width, 0);
    }

    /// Applies the row move of `slot` and labels the touched line.
    #[inline]
    fn write(&mut self, slot: Slot, node: usize, iter: &[i64]) {
        let base = slot.row * self.assoc;
        let width = self.width;
        if slot.rotated && slot.way > 0 {
            // Ways 0..way move back by one; way 0 is overwritten below, so
            // the rotated-in label never needs to be copied.  Rows and
            // labels are a few entries wide, where plain loops beat the
            // library's memmove.
            for way in (base + 1..=base + slot.way).rev() {
                self.nodes[way] = self.nodes[way - 1];
                self.lens[way] = self.lens[way - 1];
            }
            let window = &mut self.iters[base * width..(base + slot.way + 1) * width];
            for k in (width..window.len()).rev() {
                window[k] = window[k - width];
            }
        }
        let line = base + slot.line();
        self.nodes[line] = u32::try_from(node).expect("access node ids fit in u32");
        self.lens[line] = iter.len() as u8;
        copy_small(&mut self.iters[line * width..][..iter.len()], iter);
    }

    /// Re-strides the iteration arena to `width` entries per way.
    fn widen(&mut self, width: usize) {
        let old = self.width;
        let mut iters = vec![0; self.nodes.len() * width];
        if old > 0 {
            for (new, old) in iters.chunks_mut(width).zip(self.iters.chunks(old)) {
                new[..old.len()].copy_from_slice(old);
            }
        }
        self.iters = iters;
        self.width = width;
    }

    fn label(&self, slot: usize) -> (usize, &[i64]) {
        let len = usize::from(self.lens[slot]);
        (
            self.nodes[slot] as usize,
            &self.iters[slot * self.width..][..len],
        )
    }
}

/// `dst.copy_from_slice(src)` for the few entries of an iteration vector,
/// where a plain loop beats a call to the library's memcpy.
#[inline]
fn copy_small(dst: &mut [i64], src: &[i64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = *s;
    }
}

/// A borrowed view of one occupied set of a [`SymLevel`]: its lines with
/// their labels, in policy order, and its replacement-policy metadata.
#[derive(Clone, Copy)]
pub struct SymSet<'a> {
    row: usize,
    set: FlatSet<'a>,
    labels: &'a Labels,
}

impl<'a> SymSet<'a> {
    fn new(flat: &'a FlatLevel, labels: &'a Labels, row: usize) -> Self {
        SymSet {
            row,
            set: flat.row(row),
            labels,
        }
    }

    /// The set index.
    pub fn index(&self) -> usize {
        self.set.index()
    }

    /// The tags and policy metadata of the set.
    pub fn flat(&self) -> FlatSet<'a> {
        self.set
    }

    /// The lines in policy order (as [`cache_model::SetState::lines`]
    /// orders them), each with its label.
    pub fn lines(&self) -> impl Iterator<Item = Option<SymLabel<'a>>> + 'a {
        let (labels, base) = (self.labels, self.row * self.labels.assoc);
        self.set.lines().enumerate().map(move |(way, block)| {
            block.map(|block| {
                let (node, iter) = labels.label(base + way);
                SymLabel { block, node, iter }
            })
        })
    }
}

impl fmt::Debug for SymSet<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SymSet")
            .field("index", &self.index())
            .field("lines", &self.lines().collect::<Vec<_>>())
            .field("policy", &self.set.to_set_state().policy_state())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::rebuild_level_fingerprint;
    use cache_model::ReplacementPolicy;

    fn level() -> SymLevel {
        SymLevel::new(CacheConfig::with_sets(4, 2, 64, ReplacementPolicy::Lru))
    }

    fn first_label(l: &SymLevel, set: usize) -> (usize, Vec<i64>) {
        let label = l.set(set).unwrap().lines().next().unwrap().unwrap();
        (label.node, label.iter.to_vec())
    }

    #[test]
    fn access_tracks_labels_and_stats() {
        let mut l = level();
        assert!(!l.access(MemBlock(0), AccessKind::Read, 7, &[1, 2]));
        assert!(l.access(MemBlock(0), AccessKind::Read, 9, &[1, 3]));
        assert_eq!(l.stats.hits, 1);
        assert_eq!(l.stats.misses, 1);
        assert_eq!(
            first_label(&l, 0),
            (9, vec![1, 3]),
            "a hit refreshes the symbolic label"
        );
        assert_eq!(l.mru_set, 0);
        assert_eq!(l.occupied_sets().collect::<Vec<_>>(), vec![0]);
        // An LRU hit on way 1 rotates the labels with the tags.
        l.access(MemBlock(4), AccessKind::Read, 2, &[5]);
        l.access(MemBlock(0), AccessKind::Read, 3, &[6, 1, 1]);
        let lines: Vec<_> = l.set(0).unwrap().lines().flatten().collect();
        assert_eq!(
            (lines[0].block, lines[0].node, lines[0].iter),
            (MemBlock(0), 3, &[6, 1, 1][..])
        );
        assert_eq!(
            (lines[1].block, lines[1].node, lines[1].iter),
            (MemBlock(4), 2, &[5][..]),
            "a deeper access re-strides the arena and keeps older labels"
        );
    }

    #[test]
    fn no_write_allocate_does_not_fill() {
        let config = CacheConfig::with_sets(4, 2, 64, ReplacementPolicy::Lru).no_write_allocate();
        let mut l = SymLevel::new(config);
        assert!(!l.access(MemBlock(0), AccessKind::Write, 0, &[0]));
        assert!(l.set(0).is_none(), "no fill, no row");
        assert_eq!(l.occupied_len(), 0);
        assert!(!l.access(MemBlock(0), AccessKind::Read, 0, &[0]));
        assert!(l.access(MemBlock(0), AccessKind::Read, 0, &[0]));
        assert_eq!(l.occupied_sets().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn concrete_state_projection() {
        let mut l = level();
        l.access(MemBlock(5), AccessKind::Read, 0, &[0]);
        let c = l.concrete_state();
        assert_eq!(c.set_state(1).lines()[0], Some(MemBlock(5)));
    }

    #[test]
    fn incremental_fingerprint_matches_rebuild_after_accesses() {
        let mut l = level();
        for (i, b) in [0u64, 5, 9, 2, 5, 13].into_iter().enumerate() {
            l.access(MemBlock(b), AccessKind::Read, i % 2, &[i as i64]);
            l.prepare_match();
            let rebuilt = rebuild_level_fingerprint(&l);
            for (d, word) in rebuilt.iter().enumerate() {
                assert_eq!(l.fingerprint(d), Some(*word), "dim {d} after {i}");
            }
        }
    }

    #[test]
    fn post_warp_accesses_cannot_resurrect_stale_digests() {
        // Regression test: a warp rewrites rows in place, and a later access
        // to a moved row must still leave its digest recomputed — the warp
        // dirties every row, so no digest survives from before it.
        let mut l = level();
        let descendants = [0];
        l.access(MemBlock(1), AccessKind::Read, 0, &[1]);
        l.access(MemBlock(3), AccessKind::Read, 0, &[3]);
        l.prepare_match();
        // Shift by 2 lines: set 1 -> set 3, set 3 -> set 1.
        l.apply_warp(|_, iv: &[i64]| 64 * iv[0], &descendants, 1, 2, 1, 2 * 64);
        l.access(MemBlock(9), AccessKind::Read, 0, &[9]);
        l.prepare_match();
        let rebuilt = rebuild_level_fingerprint(&l);
        for (d, word) in rebuilt.iter().enumerate() {
            assert_eq!(l.fingerprint(d), Some(*word), "dim {d}");
        }
    }

    #[test]
    fn epoch_follows_label_writes_and_warps() {
        let mut l = level();
        assert_eq!(l.epoch_at(0), None, "a fresh level has no stamp");
        // A fill stamps the epoch; so does a hit promotion.
        l.access(MemBlock(0), AccessKind::Read, 0, &[4]);
        assert_eq!(l.epoch_at(0), Some(4));
        l.access(MemBlock(0), AccessKind::Read, 0, &[9]);
        assert_eq!(l.epoch_at(0), Some(9));
        assert_eq!(l.epoch_at(1), None, "the stamp is one deep");
        // A no-write-allocate write miss touches nothing: no stamp update.
        let nwa = CacheConfig::with_sets(4, 2, 64, ReplacementPolicy::Lru).no_write_allocate();
        let mut frozen = SymLevel::new(nwa);
        frozen.access(MemBlock(0), AccessKind::Write, 0, &[3]);
        assert_eq!(frozen.epoch_at(0), None);
        // A warp advances the stamp with the labels.
        let mut warped = level();
        warped.access(MemBlock(9), AccessKind::Read, 0, &[9]);
        warped.apply_warp(|_, iv: &[i64]| 64 * iv[0], &[0], 1, 2, 3, 6 * 64);
        assert_eq!(warped.epoch_at(0), Some(9 + 6));
        assert_eq!(first_label(&warped, 3), (0, vec![15]));
    }

    #[test]
    fn occupied_sets_survive_warp_rotation() {
        let mut l = level();
        // One descendant line in set 1; warp shifts blocks by 1 line.
        l.access(MemBlock(1), AccessKind::Read, 0, &[1]);
        l.apply_warp(|_, iv: &[i64]| 64 * iv[0], &[0], 1, 1, 2, 2 * 64);
        assert_eq!(
            l.occupied_sets().collect::<Vec<_>>(),
            vec![3],
            "set 1 rotated to set 3"
        );
        assert_eq!(l.mru_set, 3);
        assert!(
            l.access(MemBlock(3), AccessKind::Read, 0, &[3]),
            "the shifted tag hits"
        );
        l.prepare_match();
        let rebuilt = rebuild_level_fingerprint(&l);
        assert_eq!(l.fingerprint(0), Some(rebuilt[0]));
    }
}
