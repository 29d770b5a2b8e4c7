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
//! a **label slab** parallel to its rows.  Per way the slab holds two
//! `u32`s: the access-node id and a **stamp**, the index of an iteration
//! vector in the level's append-only **log**.  [`FlatLevel::touch`]
//! reports where each access left its line and whether the row rotated,
//! and the slab applies the same move, so a label write is eight bytes
//! whatever the loop depth, no line owns heap memory and the policy logic
//! exists once.  The epoch is a stamp too.
//!
//! Labels written at the same iteration share a stamp: an access reuses
//! the newest stamp when its vector is equal, and a grouped replay
//! ([`SymLevel::access_group`]) appends one fresh L1 stamp per round.  A
//! stamp's vector changes only where every holder must change with it.
//! A fresh stamp belongs to its round alone, so once the round settles
//! the replay rewrites its vector in place to the stretch's last iterator
//! instead of replaying the last round.  A warp is copy-on-write: a stamp
//! that only moving labels hold advances in place, and one that a staying
//! label holds too (a sibling loop's access at an equal vector) gets a
//! derived stamp for its moving holders.  When the log outgrows twice the
//! slab (plus 256 entries), it is compacted to the stamps the labels and
//! the epoch still hold.  That happens only before an append and at the
//! end of a warp, so a stamp a replay round holds is never remapped under
//! it.
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

/// The stamp of no iteration vector: the label of a way that never held a
/// line, and the epoch of a level no label write reached.
const NO_STAMP: u32 = u32::MAX;

/// Log entries allowed beyond twice the label slab before a compaction.
const LOG_SLACK: usize = 256;

/// The labels holding a stamp during a warp: moving ones, staying ones,
/// or both.
const MOVES: u8 = 1;
const STAYS: u8 = 2;
const BOTH: u8 = MOVES | STAYS;

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
    /// The iteration vectors the labels and the epoch point into.
    log: Log,
    /// The level epoch: the stamp of the last label write, [`NO_STAMP`]
    /// until the first one.
    epoch: u32,
    /// Incrementally maintained per-row digests and level fingerprints.
    tracker: FingerprintTracker,
}

impl SymLevel {
    /// An empty symbolic level.  Costs one zeroed directory of four bytes
    /// per set (untouched pages stay unmapped); the tags, the label slab,
    /// the log and the fingerprint tracker grow with the rows.
    pub fn new(config: CacheConfig) -> Self {
        let flat = FlatLevel::unreserved(&config);
        let tracker = FingerprintTracker::new(&config);
        SymLevel {
            labels: Labels::new(config.assoc()),
            config,
            mru_set: 0,
            stats: LevelStats::default(),
            flat,
            log: Log::default(),
            epoch: NO_STAMP,
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
    /// Panics if `node` exceeds `u32::MAX`.
    #[inline]
    pub fn access(&mut self, block: MemBlock, kind: AccessKind, node: usize, iter: &[i64]) -> bool {
        self.access_with(block, kind, node, |level| level.stamp_of(iter))
    }

    /// [`SymLevel::access`] labelling the touched line with `stamp`, a
    /// stamp of this level's log.
    #[inline]
    pub(crate) fn access_stamped(
        &mut self,
        block: MemBlock,
        kind: AccessKind,
        node: usize,
        stamp: u32,
    ) -> bool {
        self.access_with(block, kind, node, |_| stamp)
    }

    /// The access shared by [`SymLevel::access`] and
    /// [`SymLevel::access_stamped`]; `stamp` is only asked for when the
    /// access writes a label.
    #[inline(always)]
    fn access_with(
        &mut self,
        block: MemBlock,
        kind: AccessKind,
        node: usize,
        stamp: impl FnOnce(&mut Self) -> u32,
    ) -> bool {
        self.mru_set = self.flat.index(block);
        let fill = kind != AccessKind::Write || self.config.write_allocate();
        // The paper's SymUpSet replaces a hit line's symbolic block by the
        // freshly accessed one, as a fill does.
        let (hit, slot) = match self.flat.touch(block, fill) {
            Touch::Hit(slot) => (true, slot),
            Touch::Fill(slot) => (false, slot),
            Touch::Bypass => {
                self.stats.record(false);
                return false;
            }
        };
        let stamp = stamp(self);
        self.write_label(slot, node, stamp);
        self.stats.record(hit);
        hit
    }

    #[inline(always)]
    fn write_label(&mut self, slot: Slot, node: usize, stamp: u32) {
        if slot.row == self.labels.rows {
            self.labels.push_row();
        }
        let node = u32::try_from(node).expect("access node ids fit in u32");
        self.labels.write(slot, Label { node, stamp });
        self.epoch = stamp;
        self.tracker.mark_dirty(slot.row);
    }

    /// The stamp of `iter`: the newest one when its vector is equal, else
    /// a new one.
    #[inline]
    fn stamp_of(&mut self, iter: &[i64]) -> u32 {
        match self.log.newest() {
            Some(newest) if equal_small(self.log.get(newest), iter) => newest,
            _ => self.push_stamp(iter),
        }
    }

    /// Appends `iter` to the log as a fresh stamp, which no label shares
    /// until it is written with it.  Compacts the log first when it
    /// outgrew its bound.
    pub(crate) fn push_stamp(&mut self, iter: &[i64]) -> u32 {
        if self.log.len() >= self.log_bound() {
            self.compact();
        }
        self.log.push(iter)
    }

    /// Rewrites entry `dim` of `stamp`'s iteration vector to `value`, for
    /// every label and epoch holding the stamp.  Only sound on a stamp of
    /// [`SymLevel::push_stamp`] whose every holder should move: the
    /// labels of one replayed round, and the epoch it left.
    pub(crate) fn restamp(&mut self, stamp: u32, dim: usize, value: i64) {
        self.log.get_mut(stamp)[dim] = value;
    }

    /// The log size beyond which [`SymLevel::push_stamp`] compacts: about
    /// twice the slab, so live stamps (one per way, plus the epoch's) fill
    /// at most half of it after a compaction and its cost is amortised
    /// over the appends that refill it.
    fn log_bound(&self) -> usize {
        2 * self.labels.ways.len() + LOG_SLACK
    }

    /// Drops the log entries no label and not the epoch refers to.
    #[cold]
    fn compact(&mut self) {
        let mut remap = vec![NO_STAMP; self.log.len()];
        let held = self.labels.ways.iter().map(|label| label.stamp);
        for stamp in held.chain([self.epoch]).filter(|&s| s != NO_STAMP) {
            remap[stamp as usize] = 0;
        }
        self.log.retain(&mut remap);
        for label in &mut self.labels.ways {
            if label.stamp != NO_STAMP {
                label.stamp = remap[label.stamp as usize];
            }
        }
        if self.epoch != NO_STAMP {
            self.epoch = remap[self.epoch as usize];
        }
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
        match self.epoch {
            NO_STAMP => &[],
            stamp => self.log.get(stamp),
        }
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
        SymSet::new(&self.flat, &self.labels, &self.log, row)
    }

    /// Brings the fingerprint tracker up to date with the cache state
    /// (recomputing the digests of rows dirtied since the last call).
    /// Must be called before [`SymLevel::fingerprint`].
    pub fn prepare_match(&mut self) {
        let (flat, labels, log) = (&self.flat, &self.labels, &self.log);
        self.tracker
            .flush(|row| digest_set(&SymSet::new(flat, labels, log, row)));
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
    /// the cost is O(occupied lines) whatever the number of sets.  A label
    /// advances copy-on-write: a stamp that only moving labels (and the
    /// epoch) hold advances in place, and one that a staying label holds
    /// too gets one derived stamp, which every moving holder takes.
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
        let (labels, log) = (&mut self.labels, &mut self.log);
        let moves = |log: &Log, label: Label| {
            log.get(label.stamp).len() >= warp_depth
                && descendants.binary_search(&(label.node as usize)).is_ok()
        };
        // Per stamp, whether moving labels (MOVES), staying ones (STAYS) or
        // both hold it.
        let mut holders = vec![0u8; log.len()];
        self.flat
            .shift_rows(rotation, total_block_shift, |slot, block| {
                let label = labels.ways[slot];
                let moves = moves(log, label);
                holders[label.stamp as usize] |= if moves { MOVES } else { STAYS };
                if cfg!(debug_assertions) && moves {
                    let mut iter = log.get(label.stamp).to_vec();
                    iter[dim] += advance;
                    assert_eq!(
                        address_of(label.node as usize, &iter) / line_size,
                        block.0 as i64 + total_block_shift,
                        "warped label concretisation must shift uniformly"
                    );
                } else {
                    debug_assert_eq!(total_block_shift, 0, "stale lines require a zero shift");
                }
                moves
            });
        // A stamp only moving labels hold advances in place.  One a staying
        // label holds too (labels at equal vectors share a stamp, so a
        // sibling loop's label can hold a descendant's) is copied, and its
        // moving labels take the copy; `copies` pairs each such stamp with
        // its copy, in stamp order.
        let mut copies = Vec::new();
        for (stamp, &held) in holders.iter().enumerate() {
            let stamp = stamp as u32;
            match held {
                MOVES => log.get_mut(stamp)[dim] += advance,
                BOTH => copies.push((stamp, log.derive(stamp, dim, advance))),
                _ => {}
            }
        }
        let copy_of = |stamp: u32| {
            let at = copies.binary_search_by_key(&stamp, |&(old, _)| old);
            at.ok().map(|at| copies[at].1)
        };
        if !copies.is_empty() {
            for label in &mut labels.ways {
                if let Some(copy) = copy_of(label.stamp).filter(|_| moves(log, *label)) {
                    label.stamp = copy;
                }
            }
        }
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
        if dim < self.epoch().len() {
            let epoch = self.epoch;
            match holders[epoch as usize] {
                MOVES => {}
                BOTH => self.epoch = copy_of(epoch).expect("a held stamp was copied"),
                STAYS => self.epoch = self.log.derive(epoch, dim, advance),
                _ => self.log.get_mut(epoch)[dim] += advance,
            }
        }
        if self.log.len() > self.log_bound() {
            self.compact();
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

/// The label of one way: its access node and the stamp of its iteration
/// vector ([`NO_STAMP`] for a way that never held a line).
#[derive(Clone, Copy)]
struct Label {
    node: u32,
    stamp: u32,
}

/// The label slab: one [`Label`] per way of every row.
#[derive(Clone)]
struct Labels {
    assoc: usize,
    rows: usize,
    ways: Vec<Label>,
}

impl Labels {
    fn new(assoc: usize) -> Self {
        Labels {
            assoc,
            rows: 0,
            ways: Vec::new(),
        }
    }

    fn push_row(&mut self) {
        self.rows += 1;
        let empty = Label {
            node: 0,
            stamp: NO_STAMP,
        };
        self.ways.resize(self.rows * self.assoc, empty);
    }

    /// Applies the row move of `slot` and labels the touched line.
    #[inline]
    fn write(&mut self, slot: Slot, label: Label) {
        let base = slot.row * self.assoc;
        if slot.rotated && slot.way > 0 {
            // Ways 0..way move back by one; way 0 is overwritten below, so
            // the rotated-in label never needs to be copied.  Rows are a
            // few ways wide, where a plain loop beats the library's
            // memmove.
            for way in (base + 1..=base + slot.way).rev() {
                self.ways[way] = self.ways[way - 1];
            }
        }
        self.ways[base + slot.line()] = label;
    }
}

/// The append-only log of iteration vectors: stamp `s` names
/// `iters[spans[s].0..spans[s].1]`.
#[derive(Clone, Default)]
struct Log {
    spans: Vec<(u32, u32)>,
    iters: Vec<i64>,
}

impl Log {
    fn len(&self) -> usize {
        self.spans.len()
    }

    fn newest(&self) -> Option<u32> {
        self.spans.len().checked_sub(1).map(|s| s as u32)
    }

    #[inline]
    fn get(&self, stamp: u32) -> &[i64] {
        let (start, end) = self.spans[stamp as usize];
        &self.iters[start as usize..end as usize]
    }

    fn get_mut(&mut self, stamp: u32) -> &mut [i64] {
        let (start, end) = self.spans[stamp as usize];
        &mut self.iters[start as usize..end as usize]
    }

    /// Appends `iter` and returns its stamp.
    #[inline]
    fn push(&mut self, iter: &[i64]) -> u32 {
        let start = self.iters.len();
        // A few entries, where a plain loop beats the library's memcpy.
        self.iters.reserve(iter.len());
        for &v in iter {
            self.iters.push(v);
        }
        let end = u32::try_from(self.iters.len()).expect("the log fits in u32 entries");
        self.spans.push((start as u32, end));
        (self.spans.len() - 1) as u32
    }

    /// Appends a copy of `stamp`'s vector advanced by `advance` along
    /// `dim` and returns its stamp.
    fn derive(&mut self, stamp: u32, dim: usize, advance: i64) -> u32 {
        let (start, end) = self.spans[stamp as usize];
        let at = self.iters.len();
        self.iters.extend_from_within(start as usize..end as usize);
        self.iters[at + dim] += advance;
        self.spans.push((at as u32, self.iters.len() as u32));
        (self.spans.len() - 1) as u32
    }

    /// Keeps the entries whose `remap` entry is not [`NO_STAMP`], in
    /// order, and writes each kept entry's new stamp into `remap`.
    fn retain(&mut self, remap: &mut [u32]) {
        let (mut kept, mut end) = (0, 0);
        for (stamp, new) in remap.iter_mut().enumerate() {
            if *new == NO_STAMP {
                continue;
            }
            let (start, stop) = self.spans[stamp];
            let len = (stop - start) as usize;
            // Entries are a few wide, where a plain loop beats memmove.
            for k in 0..len {
                self.iters[end + k] = self.iters[start as usize + k];
            }
            self.spans[kept] = (end as u32, (end + len) as u32);
            *new = kept as u32;
            kept += 1;
            end += len;
        }
        self.spans.truncate(kept);
        self.iters.truncate(end);
    }
}

/// `a == b` for the few entries of an iteration vector, where a plain loop
/// beats a call to the library's memcmp.
#[inline]
fn equal_small(a: &[i64], b: &[i64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == y)
}

/// A borrowed view of one occupied set of a [`SymLevel`]: its lines with
/// their labels, in policy order, and its replacement-policy metadata.
#[derive(Clone, Copy)]
pub struct SymSet<'a> {
    row: usize,
    set: FlatSet<'a>,
    labels: &'a Labels,
    log: &'a Log,
}

impl<'a> SymSet<'a> {
    fn new(flat: &'a FlatLevel, labels: &'a Labels, log: &'a Log, row: usize) -> Self {
        SymSet {
            row,
            set: flat.row(row),
            labels,
            log,
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
        let (log, base) = (self.log, self.row * self.labels.assoc);
        let ways = &self.labels.ways[base..base + self.labels.assoc];
        self.set.lines().zip(ways).map(move |(block, label)| {
            block.map(|block| SymLabel {
                block,
                node: label.node as usize,
                iter: log.get(label.stamp),
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
            "a deeper access keeps older, shallower labels"
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

    /// An owned label: `(block, node, iter)`.
    type Line = (u64, usize, Vec<i64>);

    /// The labels of every occupied set, owned and by set index.
    fn owned_labels(l: &SymLevel) -> Vec<(usize, Vec<Line>)> {
        let mut sets: Vec<_> = l
            .sets()
            .map(|set| {
                let lines = set.lines().flatten();
                let lines = lines.map(|line| (line.block.0, line.node, line.iter.to_vec()));
                (set.index(), lines.collect())
            })
            .collect();
        sets.sort();
        sets
    }

    #[test]
    fn compaction_keeps_labels_epoch_and_fingerprints() {
        // Accesses and warps over blocks 0..6; every node at `iter`
        // touches block `iter[0] mod 6`, so a warp of 6 iterations shifts
        // no block.
        let address_of = |_: usize, iter: &[i64]| 64 * iter[0].rem_euclid(6);
        for sets in [1, 2] {
            let mut l = SymLevel::new(CacheConfig::with_sets(sets, 2, 64, ReplacementPolicy::Lru));
            // An LRU reference: per set, the lines MRU first.
            let mut model: Vec<Vec<Line>> = vec![Vec::new(); sets];
            let mut epoch = Vec::new();
            let check = |l: &mut SymLevel, model: &[Vec<_>], epoch: &[i64], at: &str| {
                assert!(
                    l.log.len() <= l.log_bound(),
                    "{at}: the log outgrew its bound"
                );
                let expected: Vec<_> = (0..sets)
                    .filter(|&s| !model[s].is_empty())
                    .map(|s| (s, model[s].clone()))
                    .collect();
                assert_eq!(owned_labels(l), expected, "{at}: labels");
                assert_eq!(l.epoch(), epoch, "{at}: epoch");
                l.prepare_match();
                let rebuilt = rebuild_level_fingerprint(l);
                for (d, word) in rebuilt.iter().enumerate() {
                    assert_eq!(l.fingerprint(d), Some(*word), "{at}: dim {d}");
                }
            };
            let (mut by_access, mut by_warp, mut x) = (0, 0, 11u64);
            let mut iter = vec![0];
            for step in 0..8_000i64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Every third access repeats the previous vector (with
                // another node), so stamps are shared as well as appended.
                if step % 3 != 1 {
                    let depth = 1 + (x >> 50) % 3;
                    iter = (0..depth)
                        .map(|d| (x >> 33) as i64 % 6 + 6 * step + d as i64)
                        .collect();
                }
                let block = address_of(0, &iter) as u64 / 64;
                let node = ((x >> 40) % 3) as usize;
                let before = l.log.len();
                l.access(MemBlock(block), AccessKind::Read, node, &iter);
                by_access += usize::from(l.log.len() < before);
                let set = &mut model[block as usize % sets];
                set.retain(|line| line.0 != block);
                set.insert(0, (block, node, iter.clone()));
                set.truncate(2);
                epoch.clone_from(&iter);
                check(&mut l, &model, &epoch, &format!("access {step}"));
                if step % 2 == 1 {
                    let before = l.log.len();
                    // Node 2's labels stay, so shared stamps are copied.
                    l.apply_warp(address_of, &[0, 1], 1, 6, 1, 0);
                    by_warp += usize::from(l.log.len() < before);
                    for line in model.iter_mut().flatten().filter(|line| line.1 != 2) {
                        line.2[0] += 6;
                    }
                    epoch[0] += 6;
                    check(&mut l, &model, &epoch, &format!("warp {step}"));
                }
            }
            assert!(
                by_access >= 3 && by_warp >= 3,
                "{sets} sets: {by_access} compactions by accesses, {by_warp} by warps"
            );
        }
    }

    #[test]
    fn warps_move_shared_stamps_copy_on_write() {
        let mut l = level();
        // Node 0 (a descendant) and node 1 (not one) write at the same
        // iteration, so their labels share one stamp, as does the epoch.
        l.access(MemBlock(1), AccessKind::Read, 0, &[3]);
        l.access(MemBlock(2), AccessKind::Read, 1, &[3]);
        let stamp = |l: &SymLevel, set: usize| l.labels.ways[l.flat.row_of(set).unwrap() * 2].stamp;
        assert_eq!(stamp(&l, 1), stamp(&l, 2), "one shared stamp");
        assert_eq!(stamp(&l, 2), l.epoch);
        // Node 0 reads 8-byte elements from byte 64: two iterations stay
        // on block 1, so the warp shifts no block.
        l.apply_warp(|_, iv: &[i64]| 64 + 8 * iv[0], &[0], 1, 1, 2, 0);
        assert_eq!(first_label(&l, 1), (0, vec![5]), "the descendant moves");
        assert_eq!(first_label(&l, 2), (1, vec![3]), "the other label stays");
        assert_eq!(l.epoch(), &[5], "the epoch advances");
        // Now only the staying label holds the epoch's stamp.
        l.access(MemBlock(2), AccessKind::Read, 1, &[7]);
        l.apply_warp(|_, iv: &[i64]| 64 + 8 * iv[0], &[0], 1, 1, 2, 0);
        assert_eq!(first_label(&l, 1), (0, vec![7]));
        assert_eq!(first_label(&l, 2), (1, vec![7]), "the other label stays");
        assert_eq!(l.epoch(), &[9], "the epoch advances alone");
        l.prepare_match();
        let rebuilt = rebuild_level_fingerprint(&l);
        assert_eq!(l.fingerprint(0), Some(rebuilt[0]));
    }
}
