//! Two-level cache hierarchies.
//!
//! [`HierarchyConfig`] and [`HierarchyState`] predate the N-level
//! [`MemoryConfig`](crate::MemoryConfig)/[`MultiLevelState`](crate::MultiLevelState)
//! pair.  [`HierarchyState`] stays as the vocabulary of the
//! data-independence theorems: two sparse [`CacheState`]s driven by the
//! reference walk [`walk_access`], whose per-set logic is the
//! [`SetState`](crate::SetState) reference the flat concrete store is
//! diffed against.  Simulators construct a `MemoryConfig` instead.

use crate::block::{Access, AccessKind, MemBlock};
use crate::cache::{CacheConfig, CacheState, LevelStats};
use crate::multilevel::MultiAccessOutcome;

/// Write policy of a cache level.
///
/// Write-back vs. write-through only affects traffic, not hit/miss counts,
/// so the model distinguishes the allocation decision, which does affect
/// misses, and records the write-back choice for documentation purposes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum WritePolicy {
    /// Write-back, write-allocate (the configuration of the test system in
    /// the paper and the PolyCache comparison).
    #[default]
    WriteBackWriteAllocate,
    /// Write-through, no-write-allocate.
    WriteThroughNoAllocate,
}

impl WritePolicy {
    /// Whether write misses allocate a line.
    pub fn allocates_on_write(self) -> bool {
        matches!(self, WritePolicy::WriteBackWriteAllocate)
    }
}

/// Configuration of a two-level non-inclusive non-exclusive hierarchy
/// (the private L1/L2 levels modelled in the paper, Appendix A.2).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct HierarchyConfig {
    /// First-level cache.
    pub l1: CacheConfig,
    /// Second-level cache.
    pub l2: CacheConfig,
    /// Write policy applied at both levels.
    pub write_policy: WritePolicy,
}

impl HierarchyConfig {
    /// A hierarchy with the default write-back write-allocate policy.
    ///
    /// # Panics
    ///
    /// Panics if the two levels have different line sizes (unsupported) or if
    /// the number of L2 sets is not a multiple of the number of L1 sets (the
    /// assumption under which Corollary 5 of the paper applies).
    pub fn new(l1: CacheConfig, l2: CacheConfig) -> Self {
        assert_eq!(
            l1.line_size(),
            l2.line_size(),
            "L1 and L2 must use the same line size"
        );
        assert_eq!(
            l2.num_sets() % l1.num_sets(),
            0,
            "the number of L2 sets must be a multiple of the number of L1 sets"
        );
        HierarchyConfig {
            l1,
            l2,
            write_policy: WritePolicy::default(),
        }
    }

    /// Sets the write policy, returning `self` for chaining.
    pub fn with_write_policy(mut self, policy: WritePolicy) -> Self {
        self.write_policy = policy;
        self
    }

    /// The cache line size shared by both levels.
    pub fn line_size(&self) -> u64 {
        self.l1.line_size()
    }

    /// The configuration used throughout the paper's evaluation: the
    /// Cascade Lake test system's private levels — a 32 KiB 8-way PLRU L1
    /// and a 1 MiB 16-way Quad-age-LRU L2, 64-byte lines.
    pub fn test_system() -> Self {
        HierarchyConfig::new(
            CacheConfig::new(32 * 1024, 8, 64, crate::ReplacementPolicy::Plru),
            CacheConfig::new(1024 * 1024, 16, 64, crate::ReplacementPolicy::Qlru),
        )
    }

    /// The configuration of the PolyCache comparison (Fig. 9): 32 KiB 4-way
    /// L1 and 256 KiB 4-way L2, both LRU, write-back write-allocate.
    pub fn polycache_comparison() -> Self {
        HierarchyConfig::new(
            CacheConfig::new(32 * 1024, 4, 64, crate::ReplacementPolicy::Lru),
            CacheConfig::new(256 * 1024, 4, 64, crate::ReplacementPolicy::Lru),
        )
    }
}

/// The result of a hierarchy access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AccessOutcome {
    /// Whether the access hit in the L1 cache.
    pub l1_hit: bool,
    /// Whether the access hit in the L2 cache; `None` if the L2 was not
    /// accessed (because the L1 hit).
    pub l2_hit: Option<bool>,
}

impl From<MultiAccessOutcome> for AccessOutcome {
    fn from(outcome: MultiAccessOutcome) -> Self {
        AccessOutcome {
            l1_hit: outcome.hit_at(0).unwrap_or(false),
            l2_hit: outcome.hit_at(1),
        }
    }
}

/// Walks one access from the L1 outwards over `(config, state)` pairs of
/// sparse [`CacheState`]s: each level is consulted until one hits.  With
/// `fill == false` (a write under no-write-allocate) a missing block is
/// classified without being inserted, while a present block is still
/// accessed so the replacement-policy state advances.
///
/// This is the reference inclusive walk: [`HierarchyState`] runs on it, and
/// the differential suites drive it next to
/// [`MultiLevelState`](crate::MultiLevelState).
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

/// The state of a two-level non-inclusive non-exclusive hierarchy, generic
/// over the line payload: two sparse [`CacheState`]s driven by
/// [`walk_access`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct HierarchyState<B> {
    l1: CacheState<B>,
    l2: CacheState<B>,
}

impl<B: Clone> HierarchyState<B> {
    /// An empty hierarchy with the geometry of `config`.
    pub fn new(config: &HierarchyConfig) -> Self {
        HierarchyState {
            l1: CacheState::new(&config.l1),
            l2: CacheState::new(&config.l2),
        }
    }

    /// Assembles a hierarchy state from explicit per-level states.
    pub fn from_levels(l1: CacheState<B>, l2: CacheState<B>) -> Self {
        HierarchyState { l1, l2 }
    }

    /// The L1 state.
    pub fn l1(&self) -> &CacheState<B> {
        &self.l1
    }

    /// The L2 state.
    pub fn l2(&self) -> &CacheState<B> {
        &self.l2
    }
}

impl HierarchyState<MemBlock> {
    /// Performs a read access to a block (Equation 24 of the paper):
    /// the L2 is only consulted — and updated — when the L1 misses.
    pub fn access_block(&mut self, config: &HierarchyConfig, block: MemBlock) -> AccessOutcome {
        self.walk(config, block, true)
    }

    /// Performs an access honouring the hierarchy's write policy.
    pub fn access(&mut self, config: &HierarchyConfig, access: Access) -> AccessOutcome {
        let block = config.l1.block_of_address(access.address);
        let fill = access.kind != AccessKind::Write || config.write_policy.allocates_on_write();
        self.walk(config, block, fill)
    }

    fn walk(&mut self, config: &HierarchyConfig, block: MemBlock, fill: bool) -> AccessOutcome {
        let levels = [(&config.l1, &mut self.l1), (&config.l2, &mut self.l2)];
        walk_access(levels.into_iter(), block, fill).into()
    }
}

/// Aggregated statistics of a two-level simulation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct HierarchyStats {
    /// L1 counters.
    pub l1: LevelStats,
    /// L2 counters (accesses = L1 misses).
    pub l2: LevelStats,
}

impl HierarchyStats {
    /// Records one access outcome.
    pub fn record(&mut self, outcome: AccessOutcome) {
        self.l1.record(outcome.l1_hit);
        if let Some(l2_hit) = outcome.l2_hit {
            self.l2.record(l2_hit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReplacementPolicy;

    fn tiny_hierarchy() -> HierarchyConfig {
        HierarchyConfig::new(
            CacheConfig::with_sets(2, 2, 64, ReplacementPolicy::Lru),
            CacheConfig::with_sets(4, 2, 64, ReplacementPolicy::Lru),
        )
    }

    #[test]
    fn l2_filters_l1_misses() {
        let config = tiny_hierarchy();
        let mut h = HierarchyState::new(&config);
        let b = MemBlock(0);
        let first = h.access_block(&config, b);
        assert_eq!(
            first,
            AccessOutcome {
                l1_hit: false,
                l2_hit: Some(false)
            }
        );
        let second = h.access_block(&config, b);
        assert_eq!(
            second,
            AccessOutcome {
                l1_hit: true,
                l2_hit: None
            }
        );
    }

    #[test]
    fn non_inclusive_refill_hits_l2() {
        let config = tiny_hierarchy();
        let mut h = HierarchyState::new(&config);
        // Fill L1 set 0 beyond its associativity so block 0 gets evicted from
        // L1 but remains in the larger L2.
        for i in [0u64, 2, 4] {
            h.access_block(&config, MemBlock(i));
        }
        let again = h.access_block(&config, MemBlock(0));
        assert!(!again.l1_hit);
        assert_eq!(again.l2_hit, Some(true));
    }

    #[test]
    fn no_write_allocate_hierarchy() {
        let config = tiny_hierarchy().with_write_policy(WritePolicy::WriteThroughNoAllocate);
        let mut h = HierarchyState::new(&config);
        let out = h.access(&config, Access::write(0));
        assert!(!out.l1_hit);
        assert_eq!(out.l2_hit, Some(false));
        // Nothing was allocated anywhere.
        let read = h.access(&config, Access::read(0));
        assert!(!read.l1_hit);
        assert_eq!(read.l2_hit, Some(false));
    }

    #[test]
    fn stats_aggregate() {
        let config = tiny_hierarchy();
        let mut h = HierarchyState::new(&config);
        let mut stats = HierarchyStats::default();
        for i in [0u64, 1, 0, 2, 0] {
            stats.record(h.access_block(&config, MemBlock(i)));
        }
        assert_eq!(stats.l1.accesses, 5);
        assert_eq!(stats.l1.misses, 3);
        assert_eq!(stats.l2.accesses, 3);
        assert_eq!(stats.l2.misses, 3);
    }

    #[test]
    fn preset_configurations() {
        let ts = HierarchyConfig::test_system();
        assert_eq!(ts.l1.num_sets(), 64);
        assert_eq!(ts.l2.num_sets(), 1024);
        let pc = HierarchyConfig::polycache_comparison();
        assert_eq!(pc.l1.assoc(), 4);
        assert_eq!(pc.l2.size_bytes(), 256 * 1024);
    }
}
