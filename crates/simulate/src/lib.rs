//! Non-warping cache simulation of polyhedral programs.
//!
//! This crate implements Algorithm 1 of *Warping Cache Simulation of
//! Polyhedral Programs* (Morelli & Reineke, PLDI 2022): the SCoP tree is
//! walked in execution order and every dynamic memory access is classified
//! and applied to a cache model.  Its runtime is proportional to the number
//! of memory accesses — it is the baseline that warping accelerates.
//!
//! The cache model is abstracted behind the [`MemorySystem`] trait,
//! implemented by [`MultiLevelSystem`] for a [`MemoryConfig`] of any depth.
//!
//! # Example
//!
//! ```
//! use cache_model::{CacheConfig, MemoryConfig, ReplacementPolicy};
//! use scop::parse_scop;
//! use simulate::{simulate, MultiLevelSystem};
//!
//! let scop = parse_scop(
//!     "double A[1000]; double B[1000];
//!      for (i = 1; i < 999; i++) B[i-1] = A[i-1] + A[i];",
//! ).unwrap();
//! // A two-line fully-associative LRU cache with 8-byte lines: the paper's
//! // running example (each array cell occupies a full cache line).
//! let config = CacheConfig::fully_associative(2, 8, ReplacementPolicy::Lru);
//! let mut memory = MultiLevelSystem::new(MemoryConfig::from(config));
//! let result = simulate(&scop, &mut memory);
//! assert_eq!(result.accesses, 3 * 998);
//! assert_eq!(result.levels[0].misses, 3 + 2 * 997);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cache_model::{AccessKind, LevelStats, MemoryConfig, MultiLevelState};
use scop::{compile, for_each_access, RunGroup, Scop};
use serde::{Serialize, Value};

/// The result of simulating a SCoP against a memory system: per-level
/// hit/miss counters for every level of the hierarchy, L1 first.  No level's
/// statistics are ever dropped, whatever the depth.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SimulationResult {
    /// Total number of dynamic memory accesses simulated.
    pub accesses: u64,
    /// Per-level statistics, L1 first.
    pub levels: Vec<LevelStats>,
}

impl SimulationResult {
    /// Number of simulated cache levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The number of misses at the last simulated level (the quantity the
    /// paper's figures report as "cache misses").  This is the single
    /// definition the whole workspace delegates to.
    pub fn last_level_misses(&self) -> u64 {
        self.levels.last().map_or(0, |level| level.misses)
    }
}

impl Serialize for SimulationResult {
    fn serialize_value(&self) -> Value {
        Value::Object(vec![
            ("accesses".to_string(), Value::UInt(self.accesses)),
            ("levels".to_string(), self.levels.serialize_value()),
        ])
    }
}

/// A memory system that can be driven by the simulator.
pub trait MemorySystem {
    /// Performs one access and updates internal statistics.
    fn access(&mut self, address: u64, kind: AccessKind);
    /// The statistics accumulated so far.
    fn result(&self) -> SimulationResult;

    /// Performs a run of `count` accesses starting at `base` with a
    /// constant byte `stride`, in order.
    fn access_run(&mut self, base: u64, stride: i64, count: u64, kind: AccessKind);

    /// Performs a run group: its streams advanced in lockstep, round by
    /// round.
    fn access_group(&mut self, group: &RunGroup);
}

/// An N-level non-inclusive non-exclusive memory system driven by a
/// [`MemoryConfig`]: the single simulation code path behind every depth,
/// and the memory model of the `engine` facade's `Backend::Classic`.
///
/// On a miss at level `i` the access is forwarded to level `i + 1`; write
/// misses allocate according to the configuration's write policy.
#[derive(Clone, Debug)]
pub struct MultiLevelSystem {
    /// Configuration with the write-allocate flag of every level normalized
    /// to the hierarchy-wide write policy.
    config: MemoryConfig,
    state: MultiLevelState,
    stats: Vec<LevelStats>,
    accesses: u64,
}

impl MultiLevelSystem {
    /// An empty memory system with the given configuration.  Construction
    /// costs one zeroed set directory per level (four bytes per set, whose
    /// pages stay untouched until a set fills), so building one system per
    /// request — as `Engine::run_batch` does — stays cheap even for 64 MiB
    /// outer levels.
    pub fn new(config: MemoryConfig) -> Self {
        let config = config.normalized();
        let state = MultiLevelState::new(&config);
        let stats = vec![LevelStats::default(); config.depth()];
        MultiLevelSystem {
            config,
            state,
            stats,
            accesses: 0,
        }
    }
}

impl MemorySystem for MultiLevelSystem {
    fn access(&mut self, address: u64, kind: AccessKind) {
        self.accesses += 1;
        self.state
            .access(&self.config, cache_model::Access { address, kind })
            .record_into(&mut self.stats);
    }

    fn access_run(&mut self, base: u64, stride: i64, count: u64, kind: AccessKind) {
        self.accesses += count;
        self.state.access_group(
            &self.config,
            &[base],
            &[stride],
            &[kind],
            count,
            &mut self.stats,
        );
    }

    fn access_group(&mut self, group: &RunGroup) {
        self.accesses += group.accesses();
        self.state.access_group(
            &self.config,
            group.bases,
            group.strides,
            group.kinds,
            group.count,
            &mut self.stats,
        );
    }

    fn result(&self) -> SimulationResult {
        SimulationResult {
            accesses: self.accesses,
            levels: self.stats.clone(),
        }
    }
}

/// Simulates a SCoP against a memory system and returns the accumulated
/// statistics.  The memory system is *not* reset first, so simulations
/// can be composed, as discussed at the end of §4 of the paper.
///
/// Uses the compiled walk; [`simulate_reference`] runs the literal
/// Algorithm 1 with bit-identical results.
pub fn simulate<M: MemorySystem>(scop: &Scop, memory: &mut M) -> SimulationResult {
    let compiled = compile(scop);
    let mut scratch = compiled.new_scratch();
    compiled.for_each_group(&mut scratch, |group| memory.access_group(group));
    memory.result()
}

/// Simulates a SCoP with the reference walk of Algorithm 1 — the
/// differential oracle the compiled path is diffed against.
pub fn simulate_reference<M: MemorySystem>(scop: &Scop, memory: &mut M) -> SimulationResult {
    for_each_access(scop, |acc| memory.access(acc.address, acc.kind));
    memory.result()
}

/// Simulates a SCoP on a fresh memory system of any depth.
pub fn simulate_memory(scop: &Scop, config: &MemoryConfig) -> SimulationResult {
    let mut memory = MultiLevelSystem::new(config.clone());
    simulate(scop, &mut memory)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_model::{CacheConfig, ReplacementPolicy};
    use scop::parse_scop;

    fn simulate_cache(scop: &Scop, config: CacheConfig) -> SimulationResult {
        simulate_memory(scop, &MemoryConfig::from(config))
    }

    fn stencil() -> Scop {
        parse_scop(
            "double A[1000]; double B[1000];\n\
             for (i = 1; i < 999; i++) B[i-1] = A[i-1] + A[i];",
        )
        .unwrap()
    }

    #[test]
    fn running_example_miss_count() {
        // Figure 1: 3 misses in the first iteration, then 1 hit and 2 misses
        // per iteration.
        let config = CacheConfig::fully_associative(2, 8, ReplacementPolicy::Lru);
        let result = simulate_cache(&stencil(), config);
        assert_eq!(result.accesses, 3 * 998);
        assert_eq!(result.levels[0].misses, 3 + 2 * 997);
        assert_eq!(result.levels[0].hits, 997);
        assert_eq!(result.depth(), 1);
        assert_eq!(result.last_level_misses(), 3 + 2 * 997);
    }

    #[test]
    fn set_associative_example_matches_figure_3() {
        // Figure 3: 4 sets of associativity 2, LRU, one array cell per line.
        // The steady state is also 1 hit + 2 misses per iteration.
        let config = CacheConfig::with_sets(4, 2, 8, ReplacementPolicy::Lru);
        let result = simulate_cache(&stencil(), config);
        assert_eq!(result.levels[0].misses, 3 + 2 * 997);
    }

    #[test]
    fn depth_2_hierarchy_counts() {
        let config = MemoryConfig::new(vec![
            CacheConfig::fully_associative(2, 8, ReplacementPolicy::Lru),
            CacheConfig::fully_associative(1024, 8, ReplacementPolicy::Lru),
        ])
        .unwrap();
        let result = simulate_memory(&stencil(), &config);
        // L2 sees exactly the L1 misses; it is big enough that every block
        // misses only once (cold misses: 999 of A, 998 of B).
        assert_eq!(result.levels[1].accesses, result.levels[0].misses);
        assert_eq!(result.levels[1].misses, 999 + 998);
        assert_eq!(result.last_level_misses(), 999 + 998);
    }

    #[test]
    fn larger_cache_only_cold_misses() {
        let config = CacheConfig::fully_associative(4096, 8, ReplacementPolicy::Lru);
        let result = simulate_cache(&stencil(), config);
        assert_eq!(result.levels[0].misses, 999 + 998);
    }

    #[test]
    fn policies_agree_on_streaming_workload() {
        // A pure streaming kernel has no reuse, so every policy misses on
        // every access.
        let scop = parse_scop("double A[4096]; for (i = 0; i < 4096; i++) A[i] = 0;").unwrap();
        for policy in ReplacementPolicy::ALL {
            let config = CacheConfig::with_sets(8, 2, 8, policy);
            let result = simulate_cache(&scop, config);
            assert_eq!(result.levels[0].misses, 4096, "{policy}");
        }
    }

    #[test]
    fn write_policy_overrides_per_level_flags() {
        // The hierarchy-wide write policy governs, even if the levels' own
        // flags disagree: a write-allocate hierarchy whose levels say
        // no-write-allocate still fills on the 8 write misses.
        let scop = parse_scop("double A[64]; for (i = 0; i < 64; i++) A[i] = 0;").unwrap();
        let l1 = CacheConfig::fully_associative(4, 64, ReplacementPolicy::Lru).no_write_allocate();
        let l2 = CacheConfig::fully_associative(64, 64, ReplacementPolicy::Lru).no_write_allocate();
        let hierarchy = MemoryConfig::new(vec![l1, l2])
            .unwrap()
            .with_write_policy(cache_model::WritePolicy::WriteBackWriteAllocate);
        let mut multi = MultiLevelSystem::new(hierarchy);
        let result = simulate(&scop, &mut multi);
        assert_eq!(result.levels[0].misses, 8);
        assert_eq!(result.levels[0].hits, 56);
    }

    #[test]
    fn three_level_memory_surfaces_every_level() {
        let config = MemoryConfig::new(vec![
            CacheConfig::with_sets(2, 2, 8, ReplacementPolicy::Lru),
            CacheConfig::with_sets(8, 4, 8, ReplacementPolicy::Lru),
            CacheConfig::with_sets(64, 8, 8, ReplacementPolicy::Lru),
        ])
        .unwrap();
        let result = simulate_memory(&stencil(), &config);
        assert_eq!(result.depth(), 3);
        // Each level only sees the misses of the previous one.
        assert_eq!(result.levels[1].accesses, result.levels[0].misses);
        assert_eq!(result.levels[2].accesses, result.levels[1].misses);
        assert_eq!(result.last_level_misses(), result.levels[2].misses);
    }

    #[test]
    fn strided_stencil_counts() {
        // i = 1, 3, ..., 997: 499 iterations; every iteration touches two
        // fresh cells of A (A[i-1], A[i]) and one of B, so with one cell per
        // line everything misses except nothing — no reuse across strides.
        let scop = parse_scop(
            "double A[1000]; double B[1000];\n\
             for (i = 1; i < 999; i += 2) B[i-1] = A[i-1] + A[i];",
        )
        .unwrap();
        let config = CacheConfig::fully_associative(2, 8, ReplacementPolicy::Lru);
        let result = simulate_cache(&scop, config);
        assert_eq!(result.accesses, 3 * 499);
        assert_eq!(result.levels[0].misses, 3 * 499);
        // With 8-byte elements and a 16-byte line, A[i-1] and A[i] share a
        // line: one miss plus one hit per iteration, B misses every other
        // iteration's line.
        let wide = CacheConfig::fully_associative(4, 16, ReplacementPolicy::Lru);
        let result = simulate_cache(&scop, wide);
        assert_eq!(result.levels[0].hits, 499);
    }

    #[test]
    fn compiled_and_reference_walks_are_bit_identical() {
        for src in [
            "double A[1000]; double B[1000];\n\
             for (i = 1; i < 999; i++) B[i-1] = A[i-1] + A[i];",
            "double A[100]; for (i = 0; i < 100; i++) if (i >= 90) A[i] = 0;",
            "double A[100][100]; double x[100]; double c[100];\n\
             for (i = 0; i < 100; i++) {\n\
               c[i] = 0;\n\
               for (j = i; j < 100; j++) c[i] = c[i] + A[i][j] * x[j];\n\
             }",
            "double A[10]; for (i = 9; i >= 0; i -= 3) if (i < 7) A[i] = 0;",
        ] {
            let scop = parse_scop(src).unwrap();
            for policy in ReplacementPolicy::ALL {
                let config = MemoryConfig::new(vec![
                    CacheConfig::with_sets(2, 2, 64, policy),
                    CacheConfig::with_sets(16, 4, 64, policy),
                ])
                .unwrap();
                let mut compiled = MultiLevelSystem::new(config.clone());
                let mut reference = MultiLevelSystem::new(config);
                assert_eq!(
                    simulate(&scop, &mut compiled),
                    simulate_reference(&scop, &mut reference),
                    "{policy} {src}"
                );
            }
        }
    }

    #[test]
    fn composition_without_reset_keeps_state() {
        let config = CacheConfig::fully_associative(64, 8, ReplacementPolicy::Lru);
        let scop = parse_scop("double A[32]; for (i = 0; i < 32; i++) A[i] = A[i];").unwrap();
        let mut memory = MultiLevelSystem::new(MemoryConfig::from(config));
        let first = simulate(&scop, &mut memory);
        assert_eq!(first.levels[0].misses, 32);
        // Second run hits everywhere because the cache is still warm.
        let second = simulate(&scop, &mut memory);
        assert_eq!(second.levels[0].misses, 32);
        assert_eq!(second.levels[0].hits, 2 * 32 + 32);
    }
}
