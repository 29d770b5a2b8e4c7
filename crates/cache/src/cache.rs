//! Set-associative caches with modulo placement.

use crate::block::{Access, AccessKind, MemBlock};
use crate::multilevel::MultiAccessOutcome;
use crate::policy::ReplacementPolicy;
use crate::set::SetState;
use std::collections::BTreeMap;
use std::fmt;

/// Configuration of a single cache level.
///
/// ```
/// use cache_model::{CacheConfig, ReplacementPolicy};
/// // The test system's L1: 32 KiB, 8-way, 64-byte lines, Pseudo-LRU.
/// let l1 = CacheConfig::new(32 * 1024, 8, 64, ReplacementPolicy::Plru);
/// assert_eq!(l1.num_sets(), 64);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CacheConfig {
    num_sets: usize,
    assoc: usize,
    line_size: u64,
    policy: ReplacementPolicy,
    write_allocate: bool,
}

impl CacheConfig {
    /// A cache of `size_bytes` total capacity with the given associativity,
    /// line size and replacement policy.
    ///
    /// # Panics
    ///
    /// Panics if the size is not an exact multiple of `assoc * line_size`
    /// or any parameter is zero.
    pub fn new(size_bytes: u64, assoc: usize, line_size: u64, policy: ReplacementPolicy) -> Self {
        assert!(
            size_bytes > 0 && assoc > 0 && line_size > 0,
            "cache parameters must be positive"
        );
        let way_bytes = assoc as u64 * line_size;
        assert_eq!(
            size_bytes % way_bytes,
            0,
            "cache size must be a multiple of associativity * line size"
        );
        CacheConfig::with_sets((size_bytes / way_bytes) as usize, assoc, line_size, policy)
    }

    /// A cache described directly by its number of sets.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn with_sets(
        num_sets: usize,
        assoc: usize,
        line_size: u64,
        policy: ReplacementPolicy,
    ) -> Self {
        assert!(
            num_sets > 0 && assoc > 0 && line_size > 0,
            "cache parameters must be positive"
        );
        CacheConfig {
            num_sets,
            assoc,
            line_size,
            policy,
            write_allocate: true,
        }
    }

    /// A fully-associative cache with `num_lines` lines.
    pub fn fully_associative(num_lines: usize, line_size: u64, policy: ReplacementPolicy) -> Self {
        CacheConfig::with_sets(1, num_lines, line_size, policy)
    }

    /// Disables write allocation: write misses do not fill the cache.
    pub fn no_write_allocate(mut self) -> Self {
        self.write_allocate = false;
        self
    }

    /// Sets the write-allocation flag explicitly (used to normalize a
    /// level against a hierarchy-wide write policy).
    pub fn with_write_allocate(mut self, allocate: bool) -> Self {
        self.write_allocate = allocate;
        self
    }

    /// Number of cache sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Associativity of each set.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Cache line size in bytes.
    pub fn line_size(&self) -> u64 {
        self.line_size
    }

    /// The replacement policy.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Whether write misses allocate a line.
    pub fn write_allocate(&self) -> bool {
        self.write_allocate
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.num_sets as u64 * self.assoc as u64 * self.line_size
    }

    /// The memory block containing byte address `addr`.
    pub fn block_of_address(&self, addr: u64) -> MemBlock {
        MemBlock::of_address(addr, self.line_size)
    }

    /// The cache set a block maps to (modulo placement, §2.2 of the paper).
    pub fn index(&self, block: MemBlock) -> usize {
        (block.0 % self.num_sets as u64) as usize
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bytes = self.size_bytes();
        // Print the size in the largest unit that divides it exactly; a
        // sub-KiB (or non-KiB-multiple) cache prints plain bytes instead of
        // the old truncated-to-zero "0 KiB".
        const KIB: u64 = 1024;
        const MIB: u64 = 1024 * 1024;
        if bytes.is_multiple_of(MIB) {
            write!(f, "{} MiB", bytes / MIB)?;
        } else if bytes.is_multiple_of(KIB) {
            write!(f, "{} KiB", bytes / KIB)?;
        } else {
            write!(f, "{bytes} B")?;
        }
        write!(
            f,
            " {}-way, {}-byte lines, {}",
            self.assoc, self.line_size, self.policy
        )
    }
}

/// Hit/miss counters of one cache level.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LevelStats {
    /// Number of accesses that reached this level.
    pub accesses: u64,
    /// Number of hits at this level.
    pub hits: u64,
    /// Number of misses at this level.
    pub misses: u64,
}

impl LevelStats {
    /// Records one access.
    pub fn record(&mut self, hit: bool) {
        self.accesses += 1;
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }

    /// Records `n` accesses with the same outcome at once — the batched
    /// counterpart of [`LevelStats::record`] used when a run of accesses
    /// to one cache line is collapsed arithmetically.
    pub fn record_n(&mut self, hit: bool, n: u64) {
        self.accesses += n;
        if hit {
            self.hits += n;
        } else {
            self.misses += n;
        }
    }

    /// Merges the counters of another statistics record into this one.
    pub fn merge(&mut self, other: &LevelStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.misses += other.misses;
    }

    /// Miss ratio (0 if there were no accesses).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// The state of a set-associative cache, generic over the line payload.
///
/// # Sparse representation
///
/// The state stores only the *touched* sets, in a sorted map, next to one
/// shared empty-set template for the geometry.  Lines are replaced but never
/// removed, so a set outside the map is guaranteed to be in its initial
/// state — empty lines *and* initial replacement-policy metadata — and the
/// template answers for it.  Consequences:
///
/// * construction is O(1) regardless of the number of sets (a 64 MiB level
///   costs the same as a 256 KiB one),
/// * [`clone`](Clone::clone), [`CacheState::map_payloads`] and
///   [`CacheState::rotate_sets`] are O(occupied sets),
/// * memory is proportional to the working set, not the cache capacity.
///
/// Equality and hashing ignore *how* a state was touched: a set that was
/// touched but left empty (e.g. by a no-write-allocate write miss through
/// [`CacheState::set_mut`]) compares equal to one that was never touched.
/// They also ignore the [level epoch](CacheState::epoch), which is
/// bookkeeping about *when* the state was last written, not content.
///
/// # The level epoch
///
/// Consumers that store logical timestamps in their payloads (symbolic
/// labels carry the iteration vector that loaded the line) need a
/// per-level reference point to compare those timestamps against:
/// a line that stopped being touched keeps a frozen label, and comparing
/// frozen labels against a *global* clock makes physically identical states
/// look different.  The state therefore carries a **level-local epoch** —
/// an iteration vector stamped by the caller on every payload write (fill
/// or hit promotion) via [`CacheState::stamp_epoch`] — relative to which
/// per-line labels can be renormalised.  The epoch is carried through
/// [`clone`](Clone::clone), [`CacheState::map_payloads`],
/// [`CacheState::rotate_sets`] and [`CacheState::permute_sets`], and can be
/// advanced wholesale with [`CacheState::shift_epoch`] when every
/// payload timestamp moves uniformly (a warp).
#[derive(Clone, Debug)]
pub struct CacheState<B> {
    num_sets: usize,
    /// The shared empty-set template: every set outside `occupied` is in
    /// exactly this state.
    template: SetState<B>,
    /// Touched sets, keyed by set index (sorted).
    occupied: BTreeMap<usize, SetState<B>>,
    /// The level-local epoch: iteration stamp of the most recent payload
    /// write.  Empty until the first [`CacheState::stamp_epoch`].
    epoch: Vec<i64>,
}

impl<B: PartialEq> PartialEq for CacheState<B> {
    fn eq(&self, other: &Self) -> bool {
        // Touched-but-empty sets equal the template, so only the non-empty
        // entries discriminate (plus the geometry itself).
        self.num_sets == other.num_sets
            && self.template == other.template
            && self
                .occupied
                .iter()
                .filter(|(_, s)| !s.is_empty())
                .eq(other.occupied.iter().filter(|(_, s)| !s.is_empty()))
    }
}

impl<B: Eq> Eq for CacheState<B> {}

impl<B: std::hash::Hash> std::hash::Hash for CacheState<B> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.num_sets.hash(state);
        self.template.hash(state);
        for (idx, set) in self.occupied.iter().filter(|(_, s)| !s.is_empty()) {
            idx.hash(state);
            set.hash(state);
        }
    }
}

impl<B: Clone> CacheState<B> {
    /// An empty cache with the geometry of `config`.  O(1): no per-set
    /// allocation happens until a set is touched.
    pub fn new(config: &CacheConfig) -> Self {
        CacheState {
            num_sets: config.num_sets(),
            template: SetState::new(config.policy(), config.assoc()),
            occupied: BTreeMap::new(),
            epoch: Vec::new(),
        }
    }

    /// The level-local epoch: the iteration stamp of the most recent
    /// [`CacheState::stamp_epoch`], empty if the state was never stamped
    /// (or was stamped with an empty vector).  See the type-level
    /// documentation for what the epoch is for.
    pub fn epoch(&self) -> &[i64] {
        &self.epoch
    }

    /// Records `iter` as the level's epoch.  Callers that timestamp their
    /// payloads invoke this on every payload write (fill or hit promotion),
    /// so the epoch always names the last access that touched the level.
    pub fn stamp_epoch(&mut self, iter: &[i64]) {
        self.epoch.clear();
        self.epoch.extend_from_slice(iter);
    }

    /// Advances the epoch by `delta` along dimension `dim`, mirroring a
    /// uniform shift of every payload timestamp (warp application).  A
    /// no-op when the epoch does not extend to `dim` — a state whose last
    /// write predates the shifted loop keeps its (frozen) stamp.
    pub fn shift_epoch(&mut self, dim: usize, delta: i64) {
        if let Some(v) = self.epoch.get_mut(dim) {
            *v += delta;
        }
    }

    /// Number of cache sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// The state of cache set `idx`.  An untouched set answers with the
    /// shared empty template.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn set(&self, idx: usize) -> &SetState<B> {
        assert!(idx < self.num_sets, "set index out of range");
        self.occupied.get(&idx).unwrap_or(&self.template)
    }

    /// Mutable access to cache set `idx`.  This marks the set as touched:
    /// an untouched set is materialised from the empty template first.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn set_mut(&mut self, idx: usize) -> &mut SetState<B> {
        assert!(idx < self.num_sets, "set index out of range");
        let template = &self.template;
        self.occupied.entry(idx).or_insert_with(|| template.clone())
    }

    /// All cache sets as `(index, set)` pairs, including untouched ones
    /// (which answer with the shared empty template).  O(total sets) when
    /// consumed fully — prefer [`CacheState::occupied_entries`] wherever
    /// the empty sets carry no information.
    pub fn sets(&self) -> impl Iterator<Item = (usize, &SetState<B>)> + '_ {
        (0..self.num_sets).map(move |i| (i, self.set(i)))
    }

    /// Borrowing iterator over the indices of the sets holding at least one
    /// line, in ascending order.  O(occupied), no allocation.  For kernels
    /// whose working set touches few sets of a large cache this is the only
    /// part of the state worth encoding or digesting; every other set is
    /// guaranteed to still carry its initial replacement-policy state
    /// (lines are replaced, never removed, so a set that ever held a line
    /// stays occupied).
    pub fn occupied_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.occupied
            .iter()
            .filter(|(_, s)| !s.is_empty())
            .map(|(&i, _)| i)
    }

    /// Borrowing iterator over `(index, set)` for the sets holding at least
    /// one line, in ascending index order.  O(occupied), no allocation.
    pub fn occupied_entries(&self) -> impl Iterator<Item = (usize, &SetState<B>)> + '_ {
        self.occupied
            .iter()
            .filter(|(_, s)| !s.is_empty())
            .map(|(&i, s)| (i, s))
    }

    /// Number of sets holding at least one line.  O(occupied).
    pub fn occupied_len(&self) -> usize {
        self.occupied_indices().count()
    }

    /// Applies a function to every payload, preserving geometry, policy
    /// state and the level epoch.  O(occupied sets).
    pub fn map_payloads<C>(&self, mut f: impl FnMut(&B) -> C) -> CacheState<C> {
        CacheState {
            num_sets: self.num_sets,
            template: self.template.map_payloads(&mut f),
            occupied: self
                .occupied
                .iter()
                .map(|(&i, s)| (i, s.map_payloads(&mut f)))
                .collect(),
            epoch: self.epoch.clone(),
        }
    }

    /// Rotates the cache sets by `offset` positions: set `i` of `self` ends
    /// up at set `(i + offset) mod num_sets` of the result.  This is the
    /// set bijection a block shift induces (Equation 5 of the paper) and
    /// costs O(occupied sets): only touched entries move.
    pub fn rotate_sets(&self, offset: i64) -> CacheState<B> {
        let n = self.num_sets as i64;
        CacheState {
            num_sets: self.num_sets,
            template: self.template.clone(),
            occupied: self
                .occupied
                .iter()
                .map(|(&i, s)| (((i as i64 + offset).rem_euclid(n)) as usize, s.clone()))
                .collect(),
            epoch: self.epoch.clone(),
        }
    }

    /// Permutes the cache sets: set `i` of the result is set `perm(i)` of
    /// `self`.  Only the occupied sets are cloned, but `perm` is evaluated
    /// for every index (a general permutation cannot be inverted without
    /// enumerating it) — for the rotation case use the O(occupied)
    /// [`CacheState::rotate_sets`] instead.
    pub fn permute_sets(&self, perm: impl Fn(usize) -> usize) -> CacheState<B> {
        let mut occupied = BTreeMap::new();
        if !self.occupied.is_empty() {
            for new in 0..self.num_sets {
                if let Some(set) = self.occupied.get(&perm(new)) {
                    occupied.insert(new, set.clone());
                }
            }
        }
        CacheState {
            num_sets: self.num_sets,
            template: self.template.clone(),
            occupied,
            epoch: self.epoch.clone(),
        }
    }
}

impl CacheState<MemBlock> {
    /// Classifies and performs a read access to a memory block
    /// (`ClCache` followed by `UpCache`).  Returns `true` for a hit.
    pub fn access_block(&mut self, config: &CacheConfig, block: MemBlock) -> bool {
        // A read always fills on a miss, so touching the set is warranted
        // either way.
        let idx = config.index(block);
        self.set_mut(idx).access(config.policy(), block)
    }

    /// Classifies a block without updating the state (`ClCache`).
    pub fn classify_block(&self, config: &CacheConfig, block: MemBlock) -> bool {
        self.set(config.index(block)).classify(&block)
    }

    /// Classifies and performs an access, honouring the write-allocation
    /// policy: on a write miss to a no-write-allocate cache the block is not
    /// inserted.  Returns `true` for a hit.
    pub fn access(&mut self, config: &CacheConfig, access: Access) -> bool {
        let block = config.block_of_address(access.address);
        let idx = config.index(block);
        let fill = access.kind != AccessKind::Write || config.write_allocate();
        // Look the set up without touching it first: a write miss that does
        // not allocate must leave an untouched set untouched.
        let Some(set) = self.occupied.get_mut(&idx) else {
            if fill {
                self.set_mut(idx).on_miss_insert(config.policy(), block);
            }
            return false;
        };
        match set.find(|b| *b == block) {
            Some(line) => {
                set.on_hit(config.policy(), line);
                true
            }
            None => {
                if fill {
                    set.on_miss_insert(config.policy(), block);
                }
                false
            }
        }
    }
}

/// Walks one access from the L1 outwards over `(config, state)` pairs of
/// sparse [`CacheState`]s: each level is consulted until one hits.  With
/// `fill == false` (a write under no-write-allocate) a missing block is
/// classified without being inserted, while a present block is still
/// accessed so the replacement-policy state advances.
///
/// This is the reference inclusive walk of a non-inclusive non-exclusive
/// hierarchy (Equation 24 of the paper, at any depth): the
/// data-independence theorems are stated over it, and the differential
/// suites drive it next to [`MultiLevelState`](crate::MultiLevelState).
pub fn walk_access<'a, I>(levels: I, block: MemBlock, fill: bool) -> MultiAccessOutcome
where
    I: Iterator<Item = (&'a CacheConfig, &'a mut CacheState<MemBlock>)>,
{
    let mut consulted = 0;
    let mut hit = false;
    for (config, state) in levels {
        consulted += 1;
        hit = if fill {
            state.access_block(config, block)
        } else {
            state.classify_block(config, block) && state.access_block(config, block)
        };
        if hit {
            break;
        }
    }
    MultiAccessOutcome {
        levels_consulted: consulted,
        hit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let c = CacheConfig::new(32 * 1024, 8, 64, ReplacementPolicy::Lru);
        assert_eq!(c.num_sets(), 64);
        assert_eq!(c.size_bytes(), 32 * 1024);
        assert_eq!(c.index(MemBlock(64)), 0);
        assert_eq!(c.index(MemBlock(65)), 1);
        assert_eq!(c.block_of_address(128), MemBlock(2));
    }

    #[test]
    fn display_picks_the_exact_unit() {
        let fmt = |size: u64, assoc: usize, line: u64| {
            CacheConfig::new(size, assoc, line, ReplacementPolicy::Lru).to_string()
        };
        // Below 1 KiB: plain bytes, not the old truncated "0 KiB".
        assert!(fmt(512, 4, 8).starts_with("512 B "), "{}", fmt(512, 4, 8));
        assert!(fmt(16, 2, 8).starts_with("16 B "));
        // Exact KiB and MiB multiples.
        assert!(fmt(32 * 1024, 8, 64).starts_with("32 KiB "));
        assert!(fmt(64 * 1024 * 1024, 16, 64).starts_with("64 MiB "));
        // A KiB multiple that is not a MiB multiple stays in KiB.
        assert!(fmt(1536 * 1024, 4, 64).starts_with("1536 KiB "));
        // Not a whole number of KiB: bytes again.
        let odd = CacheConfig::with_sets(3, 2, 8, ReplacementPolicy::Lru);
        assert!(odd.to_string().starts_with("48 B "), "{odd}");
    }

    #[test]
    fn running_example_first_iteration() {
        // Figure 1 of the paper: fully-associative, 2 lines, LRU; iteration 1
        // accesses A[0], A[1], B[0] — three misses — leaving {A[1], B[0]}.
        let config = CacheConfig::fully_associative(2, 1, ReplacementPolicy::Lru);
        let mut cache = CacheState::new(&config);
        let a = |i: u64| MemBlock(i);
        let b = |i: u64| MemBlock(1000 + i);
        assert!(!cache.access_block(&config, a(0)));
        assert!(!cache.access_block(&config, a(1)));
        assert!(!cache.access_block(&config, b(0)));
        // Iteration 2: A[1] hits, A[2] and B[1] miss.
        assert!(cache.access_block(&config, a(1)));
        assert!(!cache.access_block(&config, a(2)));
        assert!(!cache.access_block(&config, b(1)));
    }

    #[test]
    fn no_write_allocate_skips_fill() {
        let config =
            CacheConfig::fully_associative(2, 64, ReplacementPolicy::Lru).no_write_allocate();
        let mut cache = CacheState::new(&config);
        assert!(!cache.access(&config, Access::write(0)));
        // The write miss did not allocate — not even a touched-set entry.
        assert_eq!(cache.occupied_len(), 0);
        assert!(!cache.access(&config, Access::read(0)));
        // The read allocated; now it hits.
        assert!(cache.access(&config, Access::read(0)));
    }

    #[test]
    fn stats_record_and_merge() {
        let mut a = LevelStats::default();
        a.record(true);
        a.record(false);
        let mut b = LevelStats::default();
        b.record(false);
        a.merge(&b);
        assert_eq!(a.accesses, 3);
        assert_eq!(a.hits, 1);
        assert_eq!(a.misses, 2);
        assert!((a.miss_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn permute_sets_rotation() {
        let config = CacheConfig::with_sets(4, 1, 1, ReplacementPolicy::Lru);
        let mut cache = CacheState::new(&config);
        cache.access_block(&config, MemBlock(0));
        cache.access_block(&config, MemBlock(1));
        // Rotate by one: new set i holds what old set (i + 1) mod 4 held.
        let rotated = cache.permute_sets(|i| (i + 1) % 4);
        assert_eq!(rotated.set(0).lines()[0], Some(MemBlock(1)));
        assert_eq!(rotated.set(3).lines()[0], Some(MemBlock(0)));
        // rotate_sets(-1) is the same bijection, computed sparsely.
        assert_eq!(rotated, cache.rotate_sets(-1));
    }

    #[test]
    fn construction_is_sparse_and_sets_answer_with_the_template() {
        // A "64 MiB" geometry: construction must not allocate per set.
        let config = CacheConfig::new(64 * 1024 * 1024, 16, 64, ReplacementPolicy::Plru);
        let mut cache: CacheState<MemBlock> = CacheState::new(&config);
        assert_eq!(cache.num_sets(), 65536);
        assert_eq!(cache.occupied_len(), 0);
        assert!(cache.set(12345).is_empty());
        cache.access_block(&config, MemBlock(7));
        assert_eq!(cache.occupied_indices().collect::<Vec<_>>(), vec![7]);
        let (idx, set) = cache.occupied_entries().next().unwrap();
        assert_eq!(idx, 7);
        assert_eq!(set.lines()[0], Some(MemBlock(7)));
    }

    #[test]
    fn touched_but_empty_sets_do_not_break_equality() {
        let config = CacheConfig::with_sets(4, 2, 64, ReplacementPolicy::Lru).no_write_allocate();
        let mut touched = CacheState::new(&config);
        // Materialise set 2 without ever filling it.
        let _ = touched.set_mut(2);
        let fresh: CacheState<MemBlock> = CacheState::new(&config);
        assert_eq!(touched, fresh);
        assert_eq!(touched.occupied_len(), 0);
        let hash = |state: &CacheState<MemBlock>| {
            use std::hash::{Hash, Hasher};
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            state.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(hash(&touched), hash(&fresh));
    }

    #[test]
    fn epoch_is_stamped_shifted_carried_and_ignored_by_eq() {
        let config = CacheConfig::with_sets(4, 1, 1, ReplacementPolicy::Lru);
        let mut cache: CacheState<MemBlock> = CacheState::new(&config);
        assert!(cache.epoch().is_empty(), "fresh states carry no stamp");
        cache.access_block(&config, MemBlock(1));
        cache.stamp_epoch(&[3, 7]);
        assert_eq!(cache.epoch(), &[3, 7]);
        cache.shift_epoch(1, 5);
        assert_eq!(cache.epoch(), &[3, 12]);
        // Shifting a dimension beyond the stamp is a no-op (frozen stamp).
        cache.shift_epoch(2, 100);
        assert_eq!(cache.epoch(), &[3, 12]);
        // Carried through the sparse-store transformations ...
        assert_eq!(cache.rotate_sets(1).epoch(), &[3, 12]);
        assert_eq!(cache.permute_sets(|i| i).epoch(), &[3, 12]);
        assert_eq!(cache.map_payloads(|b| b.0).epoch(), &[3, 12]);
        assert_eq!(cache.clone().epoch(), &[3, 12]);
        // ... and ignored by equality and hashing: it is a clock, not
        // content.
        let mut other = cache.clone();
        other.stamp_epoch(&[99]);
        assert_eq!(cache, other);
        let hash = |state: &CacheState<MemBlock>| {
            use std::hash::{Hash, Hasher};
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            state.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(hash(&cache), hash(&other));
    }
}
