//! The one memory-system description shared by every simulator and model.
//!
//! [`MemoryConfig`] is an ordered list of cache levels (L1 first) plus a
//! hierarchy-wide [`WritePolicy`], of any depth, with a conversion from a
//! single [`CacheConfig`], the paper's presets, and JSON (de)serialization
//! so that requests and reports can travel over the wire.

use crate::cache::CacheConfig;
use crate::flat::{MAX_ASSOC, MAX_SETS};
use crate::policy::ReplacementPolicy;
use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Write policy of a memory system, applied at every level.
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

/// An N-level memory-system configuration: the single source of truth for
/// what is being simulated, accepted by every backend of the `engine`
/// facade.
///
/// Levels are ordered from the core outwards (index 0 is the L1).  The
/// hierarchy is non-inclusive non-exclusive: on a miss at level `i` the
/// access is forwarded to level `i + 1`.
///
/// ```
/// use cache_model::{CacheConfig, MemoryConfig, ReplacementPolicy};
///
/// let l1 = CacheConfig::new(32 * 1024, 8, 64, ReplacementPolicy::Plru);
/// let memory = MemoryConfig::from(l1);
/// assert_eq!(memory.depth(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MemoryConfig {
    levels: Vec<CacheConfig>,
    write_policy: WritePolicy,
}

/// An invalid [`MemoryConfig`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MemoryConfigError {
    /// The level list was empty.
    NoLevels,
    /// Two levels disagree on the cache line size (unsupported).
    MismatchedLineSizes {
        /// Index of the offending level.
        level: usize,
    },
    /// The number of sets of a level is not a multiple of the number of sets
    /// of the previous level (the assumption under which Corollary 5 of the
    /// paper applies).
    SetCountNotMultiple {
        /// Index of the offending level.
        level: usize,
    },
    /// The levels disagree on their write-allocate flags; one write policy
    /// applies across the whole hierarchy.
    MixedWriteAllocation,
    /// A PLRU level whose associativity is not a power of two (the PLRU
    /// tree needs one leaf per way).
    PlruAssociativity {
        /// Index of the offending level.
        level: usize,
        /// Its associativity.
        assoc: usize,
    },
    /// A level with more than [`MAX_SETS`] sets.
    TooManySets {
        /// Index of the offending level.
        level: usize,
        /// Its set count.
        sets: usize,
    },
    /// A level with more than [`MAX_ASSOC`] ways.
    TooManyWays {
        /// Index of the offending level.
        level: usize,
        /// Its associativity.
        assoc: usize,
    },
}

impl fmt::Display for MemoryConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryConfigError::NoLevels => {
                write!(f, "a memory configuration needs at least one cache level")
            }
            MemoryConfigError::MismatchedLineSizes { level } => write!(
                f,
                "level {} uses a different line size than level {} (all levels must agree)",
                level + 1,
                level
            ),
            MemoryConfigError::SetCountNotMultiple { level } => write!(
                f,
                "the number of sets of level {} must be a multiple of the number of sets of level {}",
                level + 1,
                level
            ),
            MemoryConfigError::MixedWriteAllocation => write!(
                f,
                "all levels must agree on write allocation; set one policy with with_write_policy"
            ),
            MemoryConfigError::PlruAssociativity { level, assoc } => write!(
                f,
                "level {} uses PLRU with associativity {assoc}, which is not a power of two",
                level + 1
            ),
            MemoryConfigError::TooManySets { level, sets } => write!(
                f,
                "level {} has {sets} sets; at most {MAX_SETS} are supported",
                level + 1
            ),
            MemoryConfigError::TooManyWays { level, assoc } => write!(
                f,
                "level {} has associativity {assoc}; at most {MAX_ASSOC} ways are supported",
                level + 1
            ),
        }
    }
}

impl std::error::Error for MemoryConfigError {}

impl MemoryConfig {
    /// A memory system with the given levels (L1 first).  The write policy
    /// is derived from the levels' own write-allocate flags, so that
    /// `MemoryConfig::new(vec![cfg])` and [`MemoryConfig::single`]`(cfg)`
    /// agree for every `cfg`.
    ///
    /// # Errors
    ///
    /// Returns an error if the list is empty, a level has more than
    /// [`MAX_SETS`] sets or [`MAX_ASSOC`] ways, a PLRU level's
    /// associativity is not a power of two, the levels disagree on the
    /// line size, a level's set count is not a multiple of its
    /// predecessor's, or the levels disagree on write allocation (the
    /// hierarchy applies one policy across all levels — resolve the
    /// conflict with [`MemoryConfig::with_write_policy`] on uniform
    /// levels).
    pub fn new(levels: Vec<CacheConfig>) -> Result<Self, MemoryConfigError> {
        if levels.is_empty() {
            return Err(MemoryConfigError::NoLevels);
        }
        for (level, config) in levels.iter().enumerate() {
            let (sets, assoc) = (config.num_sets(), config.assoc());
            if sets > MAX_SETS {
                return Err(MemoryConfigError::TooManySets { level, sets });
            }
            if assoc > MAX_ASSOC {
                return Err(MemoryConfigError::TooManyWays { level, assoc });
            }
            if config.policy() == ReplacementPolicy::Plru && !assoc.is_power_of_two() {
                return Err(MemoryConfigError::PlruAssociativity { level, assoc });
            }
        }
        for (i, pair) in levels.windows(2).enumerate() {
            if pair[0].line_size() != pair[1].line_size() {
                return Err(MemoryConfigError::MismatchedLineSizes { level: i });
            }
            if pair[1].num_sets() % pair[0].num_sets() != 0 {
                return Err(MemoryConfigError::SetCountNotMultiple { level: i });
            }
        }
        let allocate = levels[0].write_allocate();
        if levels.iter().any(|l| l.write_allocate() != allocate) {
            return Err(MemoryConfigError::MixedWriteAllocation);
        }
        let write_policy = if allocate {
            WritePolicy::WriteBackWriteAllocate
        } else {
            WritePolicy::WriteThroughNoAllocate
        };
        Ok(MemoryConfig {
            levels,
            write_policy,
        })
    }

    /// A single-level memory system.  The write policy is taken from the
    /// cache's own write-allocate flag.
    pub fn single(l1: CacheConfig) -> Self {
        let write_policy = if l1.write_allocate() {
            WritePolicy::WriteBackWriteAllocate
        } else {
            WritePolicy::WriteThroughNoAllocate
        };
        MemoryConfig {
            levels: vec![l1],
            write_policy,
        }
    }

    /// Appends a further (outer) cache level, returning `self` for chaining.
    ///
    /// # Errors
    ///
    /// Returns an error if the new level's line size or set count is
    /// incompatible with the existing last level.
    pub fn with_level(self, level: CacheConfig) -> Result<Self, MemoryConfigError> {
        let policy = self.write_policy;
        let mut levels = self.normalized().levels;
        levels.push(level.with_write_allocate(policy.allocates_on_write()));
        Ok(MemoryConfig::new(levels)?.with_write_policy(policy))
    }

    /// Sets the write policy, returning `self` for chaining.
    pub fn with_write_policy(mut self, policy: WritePolicy) -> Self {
        self.write_policy = policy;
        self
    }

    /// The same configuration with every level's write-allocate flag set
    /// from [`MemoryConfig::write_policy`] — the canonical form every
    /// simulator backend operates on, so that the hierarchy-wide policy
    /// governs regardless of how the levels were built.
    pub fn normalized(&self) -> MemoryConfig {
        let allocate = self.write_policy.allocates_on_write();
        MemoryConfig {
            levels: self
                .levels
                .iter()
                .map(|level| level.clone().with_write_allocate(allocate))
                .collect(),
            write_policy: self.write_policy,
        }
    }

    /// The cache levels, L1 first.
    pub fn levels(&self) -> &[CacheConfig] {
        &self.levels
    }

    /// Number of cache levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The first-level cache.
    pub fn l1(&self) -> &CacheConfig {
        &self.levels[0]
    }

    /// The write policy applied across the hierarchy.
    pub fn write_policy(&self) -> WritePolicy {
        self.write_policy
    }

    /// The cache line size shared by all levels.
    pub fn line_size(&self) -> u64 {
        self.levels[0].line_size()
    }

    /// The single cache level, if this is a one-level system.
    pub fn as_single(&self) -> Option<&CacheConfig> {
        match self.levels.as_slice() {
            [l1] => Some(l1),
            _ => None,
        }
    }

    /// The paper's test system: its private L1 alone, with a configurable
    /// replacement policy (32 KiB, 8-way, 64-byte lines).
    pub fn test_system_l1(policy: ReplacementPolicy) -> Self {
        MemoryConfig::single(CacheConfig::new(32 * 1024, 8, 64, policy))
    }

    /// The configuration used throughout the paper's evaluation: the
    /// Cascade Lake test system's private levels — a 32 KiB 8-way PLRU L1
    /// and a 1 MiB 16-way Quad-age-LRU L2, 64-byte lines.
    pub fn test_system() -> Self {
        MemoryConfig::new(vec![
            CacheConfig::new(32 * 1024, 8, 64, ReplacementPolicy::Plru),
            CacheConfig::new(1024 * 1024, 16, 64, ReplacementPolicy::Qlru),
        ])
        .expect("the test system's levels are compatible")
    }

    /// The configuration of the PolyCache comparison (Fig. 9): 32 KiB 4-way
    /// L1 and 256 KiB 4-way L2, both LRU, write-back write-allocate.
    pub fn polycache_comparison() -> Self {
        MemoryConfig::new(vec![
            CacheConfig::new(32 * 1024, 4, 64, ReplacementPolicy::Lru),
            CacheConfig::new(256 * 1024, 4, 64, ReplacementPolicy::Lru),
        ])
        .expect("the PolyCache comparison's levels are compatible")
    }

    /// The test system extended by a Cascade-Lake-sized shared L3 slice
    /// (8 MiB, 16-way, Quad-age LRU): the depth-3 scenario family.
    pub fn test_system_l3() -> Self {
        MemoryConfig::test_system()
            .with_level(CacheConfig::new(
                8 * 1024 * 1024,
                16,
                64,
                ReplacementPolicy::Qlru,
            ))
            .expect("the L3 slice is compatible with the private levels")
    }
}

impl From<CacheConfig> for MemoryConfig {
    fn from(l1: CacheConfig) -> Self {
        MemoryConfig::single(l1)
    }
}

impl fmt::Display for MemoryConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, level) in self.levels.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "L{}[{}]", i + 1, level)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// JSON (de)serialization.

impl Serialize for crate::LevelStats {
    fn serialize_value(&self) -> Value {
        Value::Object(vec![
            ("accesses".to_string(), Value::UInt(self.accesses)),
            ("hits".to_string(), Value::UInt(self.hits)),
            ("misses".to_string(), Value::UInt(self.misses)),
        ])
    }
}

impl Serialize for ReplacementPolicy {
    fn serialize_value(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

impl Deserialize for ReplacementPolicy {
    fn deserialize_value(value: &Value) -> Result<Self, String> {
        value
            .as_str()
            .and_then(ReplacementPolicy::by_name)
            .ok_or_else(|| {
                format!("expected one of \"lru\", \"fifo\", \"plru\", \"qlru\", got {value:?}")
            })
    }
}

impl Serialize for WritePolicy {
    fn serialize_value(&self) -> Value {
        Value::Str(
            match self {
                WritePolicy::WriteBackWriteAllocate => "write-allocate",
                WritePolicy::WriteThroughNoAllocate => "no-write-allocate",
            }
            .to_string(),
        )
    }
}

impl Deserialize for WritePolicy {
    fn deserialize_value(value: &Value) -> Result<Self, String> {
        match value.as_str() {
            Some("write-allocate") => Ok(WritePolicy::WriteBackWriteAllocate),
            Some("no-write-allocate") => Ok(WritePolicy::WriteThroughNoAllocate),
            _ => Err(format!(
                "expected \"write-allocate\" or \"no-write-allocate\", got {value:?}"
            )),
        }
    }
}

impl Serialize for CacheConfig {
    fn serialize_value(&self) -> Value {
        Value::Object(vec![
            ("sets".to_string(), Value::UInt(self.num_sets() as u64)),
            ("assoc".to_string(), Value::UInt(self.assoc() as u64)),
            ("line_size".to_string(), Value::UInt(self.line_size())),
            ("policy".to_string(), self.policy().serialize_value()),
        ])
    }
}

impl Deserialize for CacheConfig {
    fn deserialize_value(value: &Value) -> Result<Self, String> {
        let field = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| format!("cache config is missing `{key}`"))
        };
        let sets = field("sets")?
            .as_u64()
            .ok_or("`sets` must be a positive integer")? as usize;
        let assoc = field("assoc")?
            .as_u64()
            .ok_or("`assoc` must be a positive integer")? as usize;
        let line_size = field("line_size")?
            .as_u64()
            .ok_or("`line_size` must be a positive integer")?;
        let policy = ReplacementPolicy::deserialize_value(field("policy")?)?;
        if sets == 0 || assoc == 0 || line_size == 0 {
            return Err("cache parameters must be positive".to_string());
        }
        Ok(CacheConfig::with_sets(sets, assoc, line_size, policy))
    }
}

impl Serialize for MemoryConfig {
    fn serialize_value(&self) -> Value {
        Value::Object(vec![
            ("levels".to_string(), self.levels.serialize_value()),
            (
                "write_policy".to_string(),
                self.write_policy.serialize_value(),
            ),
        ])
    }
}

impl Deserialize for MemoryConfig {
    fn deserialize_value(value: &Value) -> Result<Self, String> {
        let levels = value
            .get("levels")
            .ok_or("memory config is missing `levels`")?;
        let levels: Vec<CacheConfig> = Vec::deserialize_value(levels)?;
        let mut config = MemoryConfig::new(levels).map_err(|e| e.to_string())?;
        if let Some(policy) = value.get("write_policy") {
            config = config.with_write_policy(WritePolicy::deserialize_value(policy)?);
        }
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> CacheConfig {
        CacheConfig::new(32 * 1024, 8, 64, ReplacementPolicy::Plru)
    }

    fn l2() -> CacheConfig {
        CacheConfig::new(1024 * 1024, 16, 64, ReplacementPolicy::Qlru)
    }

    #[test]
    fn from_cache_config_is_single_level() {
        let memory = MemoryConfig::from(l1());
        assert_eq!(memory.depth(), 1);
        assert_eq!(memory.as_single(), Some(&l1()));
        assert_eq!(memory.write_policy(), WritePolicy::WriteBackWriteAllocate);
    }

    #[test]
    fn no_write_allocate_flag_is_preserved() {
        let memory = MemoryConfig::from(l1().no_write_allocate());
        assert_eq!(memory.write_policy(), WritePolicy::WriteThroughNoAllocate);
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        assert_eq!(
            MemoryConfig::new(vec![]).unwrap_err(),
            MemoryConfigError::NoLevels
        );
        let mismatched = CacheConfig::new(64 * 1024, 8, 32, ReplacementPolicy::Lru);
        assert_eq!(
            MemoryConfig::new(vec![l1(), mismatched]).unwrap_err(),
            MemoryConfigError::MismatchedLineSizes { level: 0 }
        );
        let fewer_sets = CacheConfig::with_sets(48, 8, 64, ReplacementPolicy::Lru);
        assert_eq!(
            MemoryConfig::new(vec![l1(), fewer_sets]).unwrap_err(),
            MemoryConfigError::SetCountNotMultiple { level: 0 }
        );
    }

    #[test]
    fn validation_rejects_unsupported_geometries() {
        let level = |sets: usize, assoc: usize, policy| {
            MemoryConfig::new(vec![l1(), CacheConfig::with_sets(sets, assoc, 64, policy)])
        };
        assert_eq!(
            level(64, 3, ReplacementPolicy::Plru).unwrap_err(),
            MemoryConfigError::PlruAssociativity { level: 1, assoc: 3 }
        );
        assert_eq!(
            level(1 << 40, 8, ReplacementPolicy::Lru).unwrap_err(),
            MemoryConfigError::TooManySets {
                level: 1,
                sets: 1 << 40
            }
        );
        assert_eq!(
            level(64, 1 << 40, ReplacementPolicy::Lru).unwrap_err(),
            MemoryConfigError::TooManyWays {
                level: 1,
                assoc: 1 << 40
            }
        );
        // The limits themselves, non-power-of-two LRU ways and a
        // fully-associative 4096-way level stay legal.
        assert!(level(MAX_SETS, 8, ReplacementPolicy::Lru).is_ok());
        assert!(level(64, MAX_ASSOC, ReplacementPolicy::Lru).is_ok());
        assert!(level(64, 3, ReplacementPolicy::Qlru).is_ok());
        let full = CacheConfig::fully_associative(4096, 64, ReplacementPolicy::Plru);
        assert!(MemoryConfig::new(vec![full]).is_ok());
        // The wire path surfaces the same errors.
        let json = r#"{"levels":[{"sets":1,"assoc":3,"line_size":64,"policy":"plru"}]}"#;
        let err = serde_json::from_str::<MemoryConfig>(json).unwrap_err();
        assert!(err.to_string().contains("power of two"), "{err}");
    }

    #[test]
    fn new_derives_write_policy_from_uniform_flags() {
        // `new` and `single` agree for the same one-level input.
        let no_alloc = MemoryConfig::new(vec![l1().no_write_allocate()]).unwrap();
        assert_eq!(no_alloc.write_policy(), WritePolicy::WriteThroughNoAllocate);
        assert_eq!(no_alloc, MemoryConfig::single(l1().no_write_allocate()));
        // Mixed flags are rejected rather than silently resolved.
        assert_eq!(
            MemoryConfig::new(vec![l1().no_write_allocate(), l2()]).unwrap_err(),
            MemoryConfigError::MixedWriteAllocation
        );
    }

    #[test]
    fn normalized_applies_the_policy_to_every_level() {
        let memory = MemoryConfig::new(vec![l1(), l2()])
            .unwrap()
            .with_write_policy(WritePolicy::WriteThroughNoAllocate)
            .normalized();
        assert!(memory.levels().iter().all(|l| !l.write_allocate()));
        assert_eq!(memory.write_policy(), WritePolicy::WriteThroughNoAllocate);
    }

    #[test]
    fn three_levels_are_accepted() {
        let l3 = CacheConfig::new(8 * 1024 * 1024, 16, 64, ReplacementPolicy::Qlru);
        let memory = MemoryConfig::new(vec![l1(), l2(), l3]).unwrap();
        assert_eq!(memory.depth(), 3);
        assert!(memory.as_single().is_none());
    }

    #[test]
    fn preset_configurations() {
        let ts = MemoryConfig::test_system();
        assert_eq!(ts.levels()[0].num_sets(), 64);
        assert_eq!(ts.levels()[1].num_sets(), 1024);
        assert_eq!(ts.write_policy(), WritePolicy::WriteBackWriteAllocate);
        let pc = MemoryConfig::polycache_comparison();
        assert_eq!(pc.levels()[0].assoc(), 4);
        assert_eq!(pc.levels()[1].size_bytes(), 256 * 1024);
        let l3 = MemoryConfig::test_system_l3();
        assert_eq!(l3.depth(), 3);
        assert_eq!(&l3.levels()[..2], ts.levels());
    }

    #[test]
    fn json_round_trip() {
        let memory =
            MemoryConfig::test_system().with_write_policy(WritePolicy::WriteThroughNoAllocate);
        let json = serde_json::to_string(&memory).unwrap();
        let back: MemoryConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, memory);
    }
}
