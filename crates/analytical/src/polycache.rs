//! PolyCache-style per-set multi-level LRU model.

use crate::haystack::StackDistanceAnalyzer;
use cache_model::{CacheConfig, HierarchyConfig, MemBlock};
use scop::{compile, Scop};

/// Miss counts of the PolyCache-style model.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PolyCacheResult {
    /// Total number of accesses analysed.
    pub accesses: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 misses (only the L1 misses reach the L2).
    pub l2_misses: u64,
}

/// A PolyCache-style analytical model of a two-level set-associative LRU
/// cache with write-back write-allocate policy.
///
/// PolyCache characterises the misses of each cache set independently and
/// propagates the miss sequence of one level as the access sequence of the
/// next.  This stand-in follows the same decomposition: per-set stack
/// distances at the L1, and per-set stack distances over the L1 miss
/// sequence at the L2.  For LRU caches the resulting counts are exactly the
/// misses a cycle-by-cycle simulation produces.
///
/// ```
/// use analytical::PolyCacheModel;
/// use cache_model::HierarchyConfig;
/// use scop::parse_scop;
///
/// let scop = parse_scop(
///     "double A[1000]; double B[1000];
///      for (i = 1; i < 999; i++) B[i-1] = A[i-1] + A[i];",
/// ).unwrap();
/// let result = PolyCacheModel::new(HierarchyConfig::polycache_comparison()).analyze(&scop);
/// assert_eq!(result.accesses, 3 * 998);
/// // The arrays fit into the 256 KiB L2: it only suffers cold misses.
/// assert_eq!(result.l2_misses, 125 + 125);
/// ```
#[derive(Clone, Debug)]
pub struct PolyCacheModel {
    config: HierarchyConfig,
}

impl PolyCacheModel {
    /// A model of the given two-level hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if either level does not use LRU replacement — PolyCache (and
    /// this stand-in) only supports LRU.
    pub fn new(config: HierarchyConfig) -> Self {
        assert_eq!(
            config.l1.policy(),
            cache_model::ReplacementPolicy::Lru,
            "the PolyCache model supports LRU caches only"
        );
        assert_eq!(
            config.l2.policy(),
            cache_model::ReplacementPolicy::Lru,
            "the PolyCache model supports LRU caches only"
        );
        PolyCacheModel { config }
    }

    /// The modelled hierarchy.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Analyses a SCoP and returns per-level miss counts.
    pub fn analyze(&self, scop: &Scop) -> PolyCacheResult {
        let line_size = self.config.line_size();
        let mut l1 = PerSetLru::new(&self.config.l1);
        let mut l2 = PerSetLru::new(&self.config.l2);
        let mut result = PolyCacheResult::default();
        let compiled = compile(scop);
        compiled.for_each_access(&mut compiled.new_scratch(), |_, address, _| {
            result.accesses += 1;
            let block = MemBlock::of_address(address, line_size);
            if !l1.access(block) {
                result.l1_misses += 1;
                if !l2.access(block) {
                    result.l2_misses += 1;
                }
            }
        });
        result
    }
}

/// Per-set LRU hit/miss classification via per-set stack distances.
struct PerSetLru {
    assoc: usize,
    num_sets: u64,
    sets: Vec<StackDistanceAnalyzer>,
}

impl PerSetLru {
    fn new(config: &CacheConfig) -> Self {
        PerSetLru {
            assoc: config.assoc(),
            num_sets: config.num_sets() as u64,
            sets: (0..config.num_sets())
                .map(|_| StackDistanceAnalyzer::new())
                .collect(),
        }
    }

    /// Returns `true` on a hit: the access's stack distance within its cache
    /// set is smaller than the associativity.
    fn access(&mut self, block: MemBlock) -> bool {
        let set = (block.0 % self.num_sets) as usize;
        matches!(self.sets[set].record(block), Some(d) if d < self.assoc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_model::ReplacementPolicy;
    use scop::parse_scop;
    use simulate::simulate_hierarchy;

    fn stencil() -> Scop {
        parse_scop(
            "double A[4000]; double B[4000];\n\
             for (i = 1; i < 3999; i++) B[i-1] = A[i-1] + A[i];",
        )
        .unwrap()
    }

    #[test]
    fn matches_explicit_hierarchy_simulation() {
        let config = HierarchyConfig::new(
            CacheConfig::new(1024, 4, 64, ReplacementPolicy::Lru),
            CacheConfig::new(8 * 1024, 8, 64, ReplacementPolicy::Lru),
        );
        let reference = simulate_hierarchy(&stencil(), &config);
        let result = PolyCacheModel::new(config).analyze(&stencil());
        assert_eq!(result.l1_misses, reference.l1().misses);
        assert_eq!(result.l2_misses, reference.l2().unwrap().misses);
        assert_eq!(result.accesses, reference.accesses);
    }

    #[test]
    fn matches_on_the_paper_configuration() {
        let config = HierarchyConfig::polycache_comparison();
        let reference = simulate_hierarchy(&stencil(), &config);
        let result = PolyCacheModel::new(config).analyze(&stencil());
        assert_eq!(result.l1_misses, reference.l1().misses);
        assert_eq!(result.l2_misses, reference.l2().unwrap().misses);
    }

    #[test]
    #[should_panic(expected = "LRU caches only")]
    fn rejects_non_lru_policies() {
        let config = HierarchyConfig::new(
            CacheConfig::new(1024, 4, 64, ReplacementPolicy::Plru),
            CacheConfig::new(8 * 1024, 8, 64, ReplacementPolicy::Lru),
        );
        let _ = PolyCacheModel::new(config);
    }
}
