//! The N-level concrete cache state: one inclusive access path shared by
//! every concrete simulator (classic, trace, sampled).
//!
//! [`MultiLevelState`] is an ordered list of [`FlatLevel`] stores (L1
//! first) driven by a [`MemoryConfig`].  On a miss at level `i` the access
//! is forwarded to level `i + 1`; the hierarchy-wide write policy decides
//! whether write misses allocate.

use crate::block::{Access, AccessKind, MemBlock};
use crate::cache::LevelStats;
use crate::flat::FlatLevel;
use crate::memory::MemoryConfig;
use std::hash::{Hash, Hasher};

/// The outcome of an access walking an N-level hierarchy from the L1
/// downwards: the access consulted levels `0..levels_consulted` and either
/// hit at the deepest consulted level or missed everywhere.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MultiAccessOutcome {
    /// Number of levels the access reached (at least 1).
    pub levels_consulted: usize,
    /// Whether the deepest consulted level hit.  `false` means the access
    /// missed at every consulted level (which is then every level).
    pub hit: bool,
}

impl MultiAccessOutcome {
    /// Folds the outcome into per-level counters (`stats[i]` is level `i`).
    pub fn record_into(&self, stats: &mut [LevelStats]) {
        for (idx, level) in stats.iter_mut().enumerate().take(self.levels_consulted) {
            level.record(self.hit && idx + 1 == self.levels_consulted);
        }
    }
}

/// The state of an N-level non-inclusive non-exclusive hierarchy of
/// concrete blocks, one [`FlatLevel`] per level.  Level 0 is the L1.
///
/// Equality and hashing compare the levels only.
#[derive(Clone, Debug)]
pub struct MultiLevelState {
    levels: Vec<FlatLevel>,
    /// Per-stream next line crossings of the run group being replayed
    /// (see [`stretch_end`]); scratch space, not state.
    crossings: Vec<u64>,
}

impl PartialEq for MultiLevelState {
    fn eq(&self, other: &Self) -> bool {
        self.levels == other.levels
    }
}

impl Eq for MultiLevelState {}

impl Hash for MultiLevelState {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.levels.hash(state);
    }
}

impl MultiLevelState {
    /// An empty hierarchy with the geometry of `config`.  Each level costs
    /// one zeroed directory of four bytes per set and nothing else until a
    /// set is filled.
    pub fn new(config: &MemoryConfig) -> Self {
        MultiLevelState::from_levels(config.levels().iter().map(FlatLevel::new).collect())
    }

    /// Assembles a state from per-level stores (L1 first).
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty.
    pub fn from_levels(levels: Vec<FlatLevel>) -> Self {
        assert!(!levels.is_empty(), "a hierarchy needs at least one level");
        MultiLevelState {
            levels,
            crossings: Vec::new(),
        }
    }

    /// Number of cache levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The per-level stores, L1 first.
    pub fn levels(&self) -> &[FlatLevel] {
        &self.levels
    }

    /// The store of level `idx` (0 is the L1).
    pub fn level(&self, idx: usize) -> &FlatLevel {
        &self.levels[idx]
    }

    /// Walks one access from the L1 outwards: each level is consulted
    /// until one hits.  With `fill == false` (a write under
    /// no-write-allocate) a missing block is classified without being
    /// inserted, while a present block is still accessed so the
    /// replacement-policy state advances.
    #[inline]
    fn walk(&mut self, block: MemBlock, fill: bool) -> MultiAccessOutcome {
        for (idx, level) in self.levels.iter_mut().enumerate() {
            if level.access(block, fill) {
                return MultiAccessOutcome {
                    levels_consulted: idx + 1,
                    hit: true,
                };
            }
        }
        MultiAccessOutcome {
            levels_consulted: self.levels.len(),
            hit: false,
        }
    }

    /// Stamps `stamp` into every level the outcome wrote: all consulted
    /// levels under an allocating walk, only a hitting level otherwise.
    #[inline]
    fn stamp(&mut self, outcome: MultiAccessOutcome, fill: bool, stamp: i64) {
        if fill {
            for level in &mut self.levels[..outcome.levels_consulted] {
                level.stamp_epoch(stamp);
            }
        } else if outcome.hit {
            self.levels[outcome.levels_consulted - 1].stamp_epoch(stamp);
        }
    }

    /// Performs a read access to a block (Equation 24 of the paper,
    /// generalized to N levels): level `i + 1` is only consulted — and
    /// updated — when level `i` misses.
    pub fn access_block(&mut self, block: MemBlock) -> MultiAccessOutcome {
        self.walk(block, true)
    }

    /// Performs an access honouring the hierarchy-wide write policy: under
    /// no-write-allocate, a write is classified at each level without
    /// filling, and forwarded outward on a miss.
    pub fn access(&mut self, config: &MemoryConfig, access: Access) -> MultiAccessOutcome {
        let block = self.levels[0].block_of_address(access.address);
        self.walk(block, fills(config, access.kind))
    }

    /// Performs an access like [`MultiLevelState::access`] and additionally
    /// stamps `stamp` into the epoch of every level whose payload (or
    /// replacement-policy state) was written: under an allocating walk all
    /// consulted levels are written (filled on a miss, promoted on a hit);
    /// under no-write-allocate only a hitting level advances.  Levels the
    /// access never reached keep their previous epoch, so a snapshot can
    /// later tell live levels from frozen ones.
    pub fn access_stamped(
        &mut self,
        config: &MemoryConfig,
        access: Access,
        stamp: i64,
    ) -> MultiAccessOutcome {
        let fill = fills(config, access.kind);
        let outcome = self.access(config, access);
        self.stamp(outcome, fill, stamp);
        outcome
    }

    /// Performs `count` rounds of `k` access streams advanced in lockstep —
    /// round `r` accesses `bases[s] + r·strides[s]` for `s = 0..k`, in
    /// order — recording per-level counters into `stats` (`stats[i]` is
    /// level `i`).  Returns the number of accesses recorded arithmetically
    /// instead of performed.  A single stream is a run: `count` accesses
    /// `stride` bytes apart.
    ///
    /// Inside a stretch of rounds in which no stream changes its block,
    /// once a round is all L1 hits every later round of the stretch
    /// repeats it, so those rounds are counted as L1 hits instead of
    /// performed (for a single stream, every access after the second).
    /// The result is bit-identical to calling [`MultiLevelState::access`]
    /// once per access, round by round.
    pub fn access_group(
        &mut self,
        config: &MemoryConfig,
        bases: &[u64],
        strides: &[i64],
        kinds: &[AccessKind],
        count: u64,
        stats: &mut [LevelStats],
    ) -> u64 {
        self.group_impl(config, bases, strides, kinds, count, None, stats)
    }

    /// The epoch-stamping counterpart of [`MultiLevelState::access_group`]:
    /// every performed access stamps like
    /// [`MultiLevelState::access_stamped`], and the rounds counted
    /// arithmetically would only re-stamp the L1 with the same value.
    #[allow(clippy::too_many_arguments)]
    pub fn access_group_stamped(
        &mut self,
        config: &MemoryConfig,
        bases: &[u64],
        strides: &[i64],
        kinds: &[AccessKind],
        count: u64,
        stamp: i64,
        stats: &mut [LevelStats],
    ) -> u64 {
        self.group_impl(config, bases, strides, kinds, count, Some(stamp), stats)
    }

    /// Replays a run group round by round.  A *stretch* is a maximal run
    /// of consecutive rounds in which no stream's block changes.  A round
    /// that is all L1 hits is a fixed point of itself: hits insert and
    /// evict nothing, so the next round of the stretch (same blocks) hits
    /// the same ways again, and its updates leave the rows as this round
    /// left them — LRU ends with the round's blocks on top in the order of
    /// their last access, whatever the order before; FIFO hits change
    /// nothing; PLRU writes the same tree bits on the same paths; QLRU
    /// resets the same ages to zero.  Outer levels are not consulted and
    /// the L1 is re-stamped with the same value.  So once a round of a
    /// stretch is all L1 hits, every later round of the stretch is
    /// recorded as `k` L1 hits without touching the state.
    ///
    /// This generalises the single-stream rule of
    /// [`MultiLevelState::run_impl`].  Single-stream groups keep that
    /// rule: for one stream the second access is a fixed point even when
    /// it misses without filling (a no-write-allocate write), which never
    /// settles here.
    #[allow(clippy::too_many_arguments)]
    fn group_impl(
        &mut self,
        config: &MemoryConfig,
        bases: &[u64],
        strides: &[i64],
        kinds: &[AccessKind],
        count: u64,
        stamp: Option<i64>,
        stats: &mut [LevelStats],
    ) -> u64 {
        if let ([base], [stride], [kind]) = (bases, strides, kinds) {
            return self.run_impl(config, *base, *stride, count, *kind, stamp, stats);
        }
        let line = config.line_size() as i64;
        let k = bases.len() as u64;
        self.crossings.clear();
        self.crossings.resize(bases.len(), 0);
        let mut tail = 0;
        let mut round = 0;
        while round < count {
            let offset = round as i64;
            let mut settled = true;
            for s in 0..bases.len() {
                let address = (bases[s] as i64 + offset * strides[s]) as u64;
                let fill = fills(config, kinds[s]);
                let outcome = self.walk(self.levels[0].block_of_address(address), fill);
                outcome.record_into(stats);
                if let Some(stamp) = stamp {
                    self.stamp(outcome, fill, stamp);
                }
                settled &= outcome.hit && outcome.levels_consulted == 1;
            }
            if settled {
                // Every later round of the stretch repeats this one.
                let end = stretch_end(&mut self.crossings, round, bases, strides, line);
                let rest = (end - round - 1).min(count - round - 1);
                stats[0].record_n(true, rest * k);
                tail += rest * k;
                round += rest;
            }
            round += 1;
        }
        tail
    }

    /// Performs a run — the single-stream group — and returns the number
    /// of accesses recorded arithmetically.  The run is split into maximal
    /// stretches of consecutive accesses that share a cache line
    /// (addresses are monotone, so a line never recurs once left).  Within
    /// a stretch only the first two accesses are performed against the
    /// state: after an access and a repeat of the same block, a further
    /// identical access changes neither the replacement-policy state (the
    /// block is the promotion target already) nor the contents, for every
    /// supported policy and both fill paths.  The remaining `n − 2`
    /// accesses of an `n`-access stretch replicate the second outcome
    /// arithmetically — one fill plus `n − 1` hit-promotes collapse into
    /// two state updates and a counter bump.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn run_impl(
        &mut self,
        config: &MemoryConfig,
        base: u64,
        stride: i64,
        count: u64,
        kind: AccessKind,
        stamp: Option<i64>,
        stats: &mut [LevelStats],
    ) -> u64 {
        let line = config.line_size() as i64;
        let fill = fills(config, kind);
        let mut addr = base as i64;
        let mut remaining = count;
        let mut collapsed = 0;
        while remaining > 0 {
            let group = remaining.min(line_span(addr, stride, line));
            let block = self.levels[0].block_of_address(addr as u64);
            let mut outcome = MultiAccessOutcome {
                levels_consulted: 0,
                hit: false,
            };
            for _ in 0..group.min(2) {
                outcome = self.walk(block, fill);
                outcome.record_into(stats);
                if let Some(stamp) = stamp {
                    self.stamp(outcome, fill, stamp);
                }
            }
            // The state is now a fixed point for this block: replicate
            // the last outcome for the rest of the group.
            if group > 2 {
                let tail = group - 2;
                for (idx, level) in stats.iter_mut().enumerate().take(outcome.levels_consulted) {
                    level.record_n(outcome.hit && idx + 1 == outcome.levels_consulted, tail);
                }
                collapsed += tail;
            }
            addr += stride * group as i64;
            remaining -= group;
        }
        collapsed
    }
}

/// The first round after `round` at which some stream of a run group leaves
/// the line it is on at `round` (`u64::MAX` if none ever does).  Stream `s`
/// accesses `bases[s] + r·strides[s]` in round `r`, on lines of `line`
/// bytes.  `crossings[s]` keeps stream `s`'s next crossing across calls of
/// one group replay, with rounds increasing: it is recomputed only once
/// the stream reaches it, so a stream costs a division per line, not per
/// round.  Zero it before the replay's first call.
#[inline]
pub fn stretch_end(
    crossings: &mut [u64],
    round: u64,
    bases: &[u64],
    strides: &[i64],
    line: i64,
) -> u64 {
    let mut end = u64::MAX;
    for (s, crossing) in crossings.iter_mut().enumerate() {
        if *crossing <= round {
            let address = bases[s] as i64 + round as i64 * strides[s];
            *crossing = round.saturating_add(line_span(address, strides[s], line));
        }
        end = end.min(*crossing);
    }
    end
}

/// The number of accesses of a stream at `addr` moving `stride` bytes per
/// access that stay on `addr`'s line of `line` bytes, that one included
/// (`u64::MAX` for a zero stride).
fn line_span(addr: i64, stride: i64, line: i64) -> u64 {
    if stride == 0 {
        return u64::MAX;
    }
    if stride.unsigned_abs() >= line as u64 {
        return 1;
    }
    let line_base = addr.div_euclid(line) * line;
    let span = if stride > 0 {
        // Accesses before the address reaches the next line.
        (line_base + line - addr + stride - 1) / stride
    } else {
        // Accesses before the address drops below the line.
        (addr - line_base) / -stride + 1
    };
    span as u64
}

/// Whether an access of `kind` fills on a miss under `config`'s write
/// policy.
fn fills(config: &MemoryConfig, kind: AccessKind) -> bool {
    kind != AccessKind::Write || config.write_policy().allocates_on_write()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::memory::WritePolicy;
    use crate::ReplacementPolicy;

    fn tiny_three_level() -> MemoryConfig {
        MemoryConfig::new(vec![
            CacheConfig::with_sets(2, 2, 64, ReplacementPolicy::Lru),
            CacheConfig::with_sets(4, 2, 64, ReplacementPolicy::Lru),
            CacheConfig::with_sets(8, 4, 64, ReplacementPolicy::Lru),
        ])
        .unwrap()
    }

    #[test]
    fn outer_levels_filter_inner_misses() {
        let config = tiny_three_level();
        let mut state = MultiLevelState::new(&config);
        let first = state.access_block(MemBlock(0));
        assert_eq!(first.levels_consulted, 3);
        assert!(!first.hit);
        let second = state.access_block(MemBlock(0));
        assert_eq!(second.levels_consulted, 1);
        assert!(second.hit);
    }

    #[test]
    fn eviction_from_l1_hits_the_l2() {
        let config = tiny_three_level();
        let mut state = MultiLevelState::new(&config);
        // Fill L1 set 0 beyond its associativity: block 0 is evicted from
        // the L1 but survives in the larger L2.
        for b in [0u64, 2, 4] {
            state.access_block(MemBlock(b));
        }
        let again = state.access_block(MemBlock(0));
        assert_eq!(again.levels_consulted, 2);
        assert!(again.hit);
    }

    #[test]
    fn no_write_allocate_does_not_fill_any_level() {
        let config = tiny_three_level().with_write_policy(WritePolicy::WriteThroughNoAllocate);
        let mut state = MultiLevelState::new(&config);
        let write = state.access(&config, Access::write(0));
        assert_eq!(write.levels_consulted, 3);
        assert!(!write.hit);
        let read = state.access(&config, Access::read(0));
        assert!(!read.hit, "nothing was allocated anywhere");
    }

    #[test]
    fn access_stamped_marks_only_written_levels() {
        let config = tiny_three_level();
        let mut state = MultiLevelState::new(&config);
        // A cold miss consults (and fills) every level: all stamped.
        state.access_stamped(&config, Access::read(0), 7);
        let epochs = |state: &MultiLevelState| -> Vec<i64> {
            state.levels().iter().map(FlatLevel::epoch).collect()
        };
        assert_eq!(epochs(&state), vec![7, 7, 7]);
        // An L1 hit touches only the L1: outer levels keep their stamp.
        state.access_stamped(&config, Access::read(0), 9);
        assert_eq!(epochs(&state), vec![9, 7, 7]);
    }

    #[test]
    fn no_write_allocate_miss_stamps_nothing() {
        let config = tiny_three_level().with_write_policy(WritePolicy::WriteThroughNoAllocate);
        let mut state = MultiLevelState::new(&config);
        state.access_stamped(&config, Access::write(0), 3);
        assert_eq!(state.levels()[0].epoch(), i64::MIN, "nothing was written");
        // After a read allocates, a write hit stamps the hitting level only.
        state.access_stamped(&config, Access::read(0), 4);
        state.access_stamped(&config, Access::write(0), 5);
        assert_eq!(state.levels()[0].epoch(), 5);
        assert_eq!(state.levels()[1].epoch(), 4);
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let config = tiny_three_level();
        let mut state = MultiLevelState::new(&config);
        for b in [0u64, 2, 4, 0, 6] {
            state.access_stamped(&config, Access::read(b * 64), b as i64);
        }
        let snap = state.clone();
        assert_eq!(snap, state);
        // `FlatLevel` equality ignores epochs, so compare them one by one.
        for (a, b) in snap.levels().iter().zip(state.levels()) {
            assert_eq!(a.epoch(), b.epoch());
        }
        // A copy of the snapshot diverges independently of the original.
        let mut forked = snap.clone();
        forked.access_block(MemBlock(99));
        assert_ne!(forked, state);
        assert_eq!(snap, state, "snapshot itself is unchanged");
    }

    #[test]
    fn access_run_is_bit_identical_to_single_accesses() {
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Plru,
            ReplacementPolicy::Qlru,
        ] {
            let config = MemoryConfig::new(vec![
                CacheConfig::with_sets(2, 2, 64, policy),
                CacheConfig::with_sets(4, 2, 64, policy),
            ])
            .unwrap();
            for write_policy in [
                WritePolicy::WriteBackWriteAllocate,
                WritePolicy::WriteThroughNoAllocate,
            ] {
                let config = config.clone().with_write_policy(write_policy);
                // (base, stride, count): sub-line forward, line-sized,
                // line-skipping, sub-line backward, and zero strides.
                let runs = [
                    (0u64, 8i64, 40u64, AccessKind::Read),
                    (512, 64, 16, AccessKind::Write),
                    (64, 200, 10, AccessKind::Read),
                    (4096, -8, 33, AccessKind::Write),
                    (128, 0, 9, AccessKind::Read),
                    (60, 8, 3, AccessKind::Read), // straddles a line boundary
                ];
                let mut batched = MultiLevelState::new(&config);
                let mut unbatched = MultiLevelState::new(&config);
                let mut batched_stats = vec![LevelStats::default(); 2];
                let mut unbatched_stats = vec![LevelStats::default(); 2];
                for (base, stride, count, kind) in runs {
                    batched.access_group_stamped(
                        &config,
                        &[base],
                        &[stride],
                        &[kind],
                        count,
                        7,
                        &mut batched_stats,
                    );
                    for k in 0..count {
                        let address = (base as i64 + k as i64 * stride) as u64;
                        unbatched
                            .access_stamped(&config, Access { address, kind }, 7)
                            .record_into(&mut unbatched_stats);
                    }
                }
                assert_eq!(batched, unbatched, "{policy:?} {write_policy:?}");
                assert_eq!(
                    batched_stats, unbatched_stats,
                    "{policy:?} {write_policy:?}"
                );
            }
        }
    }

    /// A group as `(bases, strides, kinds, count)`.
    type Group = (&'static [u64], &'static [i64], &'static [AccessKind], u64);

    const POLICIES: [ReplacementPolicy; 4] = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Plru,
        ReplacementPolicy::Qlru,
    ];

    /// Two levels small enough for conflicts: a 2-set, 2-way L1 (blocks
    /// 0, 2 and 4 share its set 0) over a 4-set, 2-way L2.
    fn small_two_level(policy: ReplacementPolicy) -> MemoryConfig {
        MemoryConfig::new(vec![
            CacheConfig::with_sets(2, 2, 64, policy),
            CacheConfig::with_sets(4, 2, 64, policy),
        ])
        .unwrap()
    }

    /// The group's accesses one by one, round by round.
    fn replay(
        state: &mut MultiLevelState,
        config: &MemoryConfig,
        (bases, strides, kinds, count): Group,
        stamp: i64,
        stats: &mut [LevelStats],
    ) {
        for r in 0..count as i64 {
            for s in 0..bases.len() {
                let address = (bases[s] as i64 + r * strides[s]) as u64;
                let access = Access {
                    address,
                    kind: kinds[s],
                };
                state
                    .access_stamped(config, access, stamp)
                    .record_into(stats);
            }
        }
    }

    fn epochs(state: &MultiLevelState) -> Vec<i64> {
        state.levels().iter().map(FlatLevel::epoch).collect()
    }

    #[test]
    fn access_group_is_bit_identical_to_single_accesses() {
        use AccessKind::{Read, Write};
        let groups: [Group; 8] = [
            // Two streams in different sets, sub-line stride.
            (&[0, 64], &[8, 8], &[Read, Write], 24),
            // One stretch plus a last round on new lines, which a tail
            // running past its stretch would count as hits.
            (&[2048, 2112], &[8, 8], &[Read, Read], 9),
            // The tiled-gemm body: a read and a write of one block around
            // a fixed scalar.
            (&[512, 1024, 512], &[8, 0, 8], &[Read, Read, Write], 20),
            // Three lines of one two-way L1 set: every round misses, so no
            // round is ever a fixed point.
            (&[0, 128, 256], &[8, 8, 8], &[Read, Write, Read], 16),
            // Backward and zero strides, straddling lines.
            (&[4136, 2048], &[-8, 0], &[Write, Read], 17),
            // Line-crossing streams: every round opens a stretch.
            (&[0, 8192], &[64, 128], &[Read, Read], 6),
            // The first group again, now cached: the first round settles.
            (&[0, 64], &[8, 8], &[Read, Write], 24),
            // A single stream is a run.
            (&[60], &[8], &[Read], 5),
        ];
        for policy in POLICIES {
            for write_policy in [
                WritePolicy::WriteBackWriteAllocate,
                WritePolicy::WriteThroughNoAllocate,
            ] {
                let config = small_two_level(policy).with_write_policy(write_policy);
                let tag = format!("{policy:?} {write_policy:?}");
                let mut stamped = MultiLevelState::new(&config);
                let mut plain = MultiLevelState::new(&config);
                let mut reference = MultiLevelState::new(&config);
                let mut stamped_stats = vec![LevelStats::default(); 2];
                let mut plain_stats = vec![LevelStats::default(); 2];
                let mut reference_stats = vec![LevelStats::default(); 2];
                for (stamp, group) in groups.into_iter().enumerate() {
                    let (bases, strides, kinds, count) = group;
                    let stamp = stamp as i64;
                    stamped.access_group_stamped(
                        &config,
                        bases,
                        strides,
                        kinds,
                        count,
                        stamp,
                        &mut stamped_stats,
                    );
                    plain.access_group(&config, bases, strides, kinds, count, &mut plain_stats);
                    replay(&mut reference, &config, group, stamp, &mut reference_stats);
                    assert_eq!(stamped, reference, "{tag} after {bases:?}");
                    assert_eq!(epochs(&stamped), epochs(&reference), "{tag} {bases:?}");
                    assert_eq!(stamped_stats, reference_stats, "{tag} after {bases:?}");
                    assert_eq!(plain, reference, "{tag} after {bases:?}");
                    assert_eq!(plain_stats, reference_stats, "{tag} after {bases:?}");
                }
            }
        }
    }

    #[test]
    fn lockstep_tail_starts_after_the_first_all_hit_round() {
        use AccessKind::Read;
        // One 8-round stretch of two streams in different sets.
        let pair: Group = (&[0, 64], &[8, 8], &[Read, Read], 8);
        let conflict: Group = (&[0, 128, 256], &[8, 8, 8], &[Read, Read, Read], 8);
        for policy in POLICIES {
            let config = small_two_level(policy);
            let mut stats = vec![LevelStats::default(); 2];
            let mut state = MultiLevelState::new(&config);
            let mut tail = |state: &mut MultiLevelState, (bases, strides, kinds, count): Group| {
                state.access_group(&config, bases, strides, kinds, count, &mut stats)
            };
            // Cold: round 1 fills and round 2 hits (QLRU included, though
            // it moves the lines' ages from 2 to 0); rounds 3 to 8 are
            // counted.
            assert_eq!(tail(&mut state, pair), 6 * 2, "{policy:?} cold");
            // Cached: round 1 already hits; rounds 2 to 8 are counted.
            assert_eq!(tail(&mut state, pair), 7 * 2, "{policy:?} cached");
            // More lines than ways: every round misses, nothing is counted.
            assert_eq!(tail(&mut state, conflict), 0, "{policy:?} conflict");
        }
    }

    #[test]
    fn record_into_charges_only_consulted_levels() {
        let config = tiny_three_level();
        let mut state = MultiLevelState::new(&config);
        let mut stats = vec![LevelStats::default(); 3];
        state.access_block(MemBlock(0)).record_into(&mut stats);
        state.access_block(MemBlock(0)).record_into(&mut stats);
        assert_eq!(stats[0].accesses, 2);
        assert_eq!(stats[0].hits, 1);
        assert_eq!(stats[1].accesses, 1);
        assert_eq!(stats[1].misses, 1);
        assert_eq!(stats[2].accesses, 1);
    }
}
