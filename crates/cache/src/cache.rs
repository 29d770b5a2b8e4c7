//! The geometry of one cache level (modulo placement) and its hit/miss
//! counters.

use crate::block::MemBlock;
use crate::policy::ReplacementPolicy;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Access, FlatLevel, MemoryConfig, MultiLevelState, SetState, WritePolicy};

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
        let config =
            MemoryConfig::from(CacheConfig::fully_associative(2, 1, ReplacementPolicy::Lru));
        let mut cache = MultiLevelState::new(&config);
        let mut hit = |block: u64| cache.access_block(MemBlock(block)).hit;
        let a = |i: u64| i;
        let b = |i: u64| 1000 + i;
        assert!(!hit(a(0)));
        assert!(!hit(a(1)));
        assert!(!hit(b(0)));
        // Iteration 2: A[1] hits, A[2] and B[1] miss.
        assert!(hit(a(1)));
        assert!(!hit(a(2)));
        assert!(!hit(b(1)));
    }

    #[test]
    fn no_write_allocate_skips_fill() {
        let config = MemoryConfig::from(
            CacheConfig::fully_associative(2, 64, ReplacementPolicy::Lru).no_write_allocate(),
        );
        let mut cache = MultiLevelState::new(&config);
        assert!(!cache.access(&config, Access::write(0)).hit);
        // The write miss did not allocate — not even a row.
        assert_eq!(cache.level(0).occupied_len(), 0);
        assert!(!cache.access(&config, Access::read(0)).hit);
        // The read allocated; now it hits.
        assert!(cache.access(&config, Access::read(0)).hit);
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
    fn construction_is_sparse_and_sets_answer_with_the_template() {
        // A "64 MiB" geometry: construction allocates no row.
        let config = CacheConfig::new(64 * 1024 * 1024, 16, 64, ReplacementPolicy::Plru);
        let mut level = FlatLevel::new(&config);
        assert_eq!(level.num_sets(), 65536);
        assert_eq!(level.occupied_len(), 0);
        let initial = SetState::new(ReplacementPolicy::Plru, 16);
        assert!(level.set(12345).is_none());
        assert_eq!(level.set_state(12345), initial);
        level.access(MemBlock(7), true);
        let occupied: Vec<usize> = level.occupied_sets().map(|set| set.index()).collect();
        assert_eq!(occupied, vec![7]);
        assert_eq!(level.set_state(7).lines()[0], Some(MemBlock(7)));
        assert_eq!(level.set_state(12345), initial);
    }

    #[test]
    fn touched_but_empty_sets_do_not_break_equality() {
        let config = MemoryConfig::new(vec![
            CacheConfig::with_sets(4, 2, 64, ReplacementPolicy::Lru),
            CacheConfig::with_sets(8, 2, 64, ReplacementPolicy::Plru),
        ])
        .unwrap()
        .with_write_policy(WritePolicy::WriteThroughNoAllocate);
        let mut touched = MultiLevelState::new(&config);
        // A write miss that does not allocate reaches set 2 of both levels
        // and leaves them empty.
        assert!(!touched.access(&config, Access::write(2 * 64)).hit);
        let fresh = MultiLevelState::new(&config);
        assert_eq!(touched, fresh);
        let hash = |state: &MultiLevelState| {
            use std::hash::{Hash, Hasher};
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            state.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(hash(&touched), hash(&fresh));
    }
}
