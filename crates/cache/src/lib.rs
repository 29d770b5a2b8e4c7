//! Cache models for warping cache simulation.
//!
//! This crate implements the cache-architecture substrate of the paper
//! *Warping Cache Simulation of Polyhedral Programs* (Morelli & Reineke,
//! PLDI 2022):
//!
//! * memory blocks and accesses ([`MemBlock`], [`Access`], [`AccessKind`]),
//! * replacement policies satisfying the data-independence property
//!   (Property 1): [`ReplacementPolicy::Lru`], [`ReplacementPolicy::Fifo`],
//!   [`ReplacementPolicy::Plru`] and [`ReplacementPolicy::Qlru`],
//! * individual cache sets ([`SetState`], generic over the line payload:
//!   the reference update logic of every policy),
//! * one cache store with modulo placement ([`CacheConfig`]): [`FlatLevel`],
//!   a zeroed per-set directory plus a slab of `assoc`-wide tag rows with
//!   packed policy metadata, bit-identical to [`SetState`]
//!   ([`FlatLevel::set_state`] is the bridge the differential suites diff
//!   through).  Concrete simulation (classic, trace, sampled) uses it
//!   directly; warping keeps its symbolic labels in a slab parallel to its
//!   rows, kept in step through [`FlatLevel::touch`], and renames it by a
//!   block shift with [`FlatLevel::shift_rows`], the bijection of the
//!   data-independence theorems,
//! * the memory system: [`MemoryConfig`], the one description of a
//!   memory hierarchy, holds any number of non-inclusive non-exclusive
//!   cache levels (with write-allocate and no-write-allocate
//!   [`WritePolicy`], a conversion from a single [`CacheConfig`], the
//!   paper's presets and JSON (de)serialization) and [`MultiLevelState`]
//!   simulates it on flat levels through one inclusive access path.
//!
//! # Example
//!
//! ```
//! use cache_model::{CacheConfig, MemBlock, MemoryConfig, MultiLevelState, ReplacementPolicy};
//!
//! // The running example of the paper: 4 sets, associativity 2, LRU.
//! let config = MemoryConfig::from(CacheConfig::with_sets(4, 2, 64, ReplacementPolicy::Lru));
//! let mut cache = MultiLevelState::new(&config);
//! let a = MemBlock(0);
//! assert!(!cache.access_block(a).hit); // cold miss
//! assert!(cache.access_block(a).hit);  // hit
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bijection;
mod block;
mod cache;
mod flat;
mod memory;
mod multilevel;
mod policy;
mod set;

pub use block::{Access, AccessKind, MemBlock};
pub use cache::{CacheConfig, LevelStats};
pub use flat::{FlatLevel, FlatSet, Slot, Touch, MAX_ASSOC, MAX_SETS};
pub use memory::{MemoryConfig, MemoryConfigError, WritePolicy};
pub use multilevel::{stretch_end, MultiAccessOutcome, MultiLevelState};
pub use policy::{PolicyState, ReplacementPolicy};
pub use set::SetState;
