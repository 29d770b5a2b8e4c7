//! PolyCache-style per-set multi-level LRU model.

use crate::haystack::StackDistanceAnalyzer;
use cache_model::{CacheConfig, LevelStats, MemBlock, MemoryConfig, ReplacementPolicy};
use scop::{compile, Scop};

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
/// use cache_model::MemoryConfig;
/// use scop::parse_scop;
///
/// let scop = parse_scop(
///     "double A[1000]; double B[1000];
///      for (i = 1; i < 999; i++) B[i-1] = A[i-1] + A[i];",
/// ).unwrap();
/// let model = PolyCacheModel::new(&MemoryConfig::polycache_comparison()).unwrap();
/// let levels = model.analyze(&scop);
/// assert_eq!(levels[0].accesses, 3 * 998);
/// // The arrays fit into the 256 KiB L2: it only suffers cold misses.
/// assert_eq!(levels[1].misses, 125 + 125);
/// ```
#[derive(Clone, Debug)]
pub struct PolyCacheModel {
    l1: CacheConfig,
    l2: CacheConfig,
}

impl PolyCacheModel {
    /// A model of the given memory system.
    ///
    /// # Errors
    ///
    /// Returns a message unless `memory` has exactly two levels, both with
    /// LRU replacement — the only hierarchies PolyCache (and this
    /// stand-in) covers.
    pub fn new(memory: &MemoryConfig) -> Result<Self, String> {
        let [l1, l2] = memory.levels() else {
            return Err(format!(
                "the PolyCache model covers two-level hierarchies, got {} levels",
                memory.depth()
            ));
        };
        if l1.policy() != ReplacementPolicy::Lru || l2.policy() != ReplacementPolicy::Lru {
            return Err("the PolyCache model supports LRU replacement only".to_string());
        }
        Ok(PolyCacheModel {
            l1: l1.clone(),
            l2: l2.clone(),
        })
    }

    /// Analyses a SCoP and returns the counts of both levels, L1 first
    /// (the L2's accesses are the L1's misses).
    pub fn analyze(&self, scop: &Scop) -> Vec<LevelStats> {
        let line_size = self.l1.line_size();
        let mut l1 = PerSetLru::new(&self.l1);
        let mut l2 = PerSetLru::new(&self.l2);
        let mut levels = vec![LevelStats::default(); 2];
        let compiled = compile(scop);
        compiled.for_each_access(&mut compiled.new_scratch(), |_, address, _| {
            let block = MemBlock::of_address(address, line_size);
            let hit = l1.access(block);
            levels[0].record(hit);
            if !hit {
                levels[1].record(l2.access(block));
            }
        });
        levels
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
    use scop::parse_scop;
    use simulate::simulate_memory;

    fn stencil() -> Scop {
        parse_scop(
            "double A[4000]; double B[4000];\n\
             for (i = 1; i < 3999; i++) B[i-1] = A[i-1] + A[i];",
        )
        .unwrap()
    }

    #[test]
    fn matches_explicit_hierarchy_simulation() {
        let config = MemoryConfig::new(vec![
            CacheConfig::new(1024, 4, 64, ReplacementPolicy::Lru),
            CacheConfig::new(8 * 1024, 8, 64, ReplacementPolicy::Lru),
        ])
        .unwrap();
        let reference = simulate_memory(&stencil(), &config);
        let levels = PolyCacheModel::new(&config).unwrap().analyze(&stencil());
        assert_eq!(levels, reference.levels);
        assert_eq!(levels[0].accesses, reference.accesses);
    }

    #[test]
    fn matches_on_the_paper_configuration() {
        let config = MemoryConfig::polycache_comparison();
        let reference = simulate_memory(&stencil(), &config);
        let levels = PolyCacheModel::new(&config).unwrap().analyze(&stencil());
        assert_eq!(levels, reference.levels);
    }

    #[test]
    fn rejects_non_lru_policies() {
        let plru = MemoryConfig::new(vec![
            CacheConfig::new(1024, 4, 64, ReplacementPolicy::Plru),
            CacheConfig::new(8 * 1024, 8, 64, ReplacementPolicy::Lru),
        ])
        .unwrap();
        let err = PolyCacheModel::new(&plru).unwrap_err();
        assert!(err.contains("LRU replacement only"), "{err}");
    }
}
