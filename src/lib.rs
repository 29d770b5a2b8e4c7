//! # warpsim — warping cache simulation of polyhedral programs
//!
//! A from-scratch Rust reproduction of *Warping Cache Simulation of
//! Polyhedral Programs* (Canberk Morelli and Jan Reineke, PLDI 2022),
//! including every substrate the paper's tool depends on.
//!
//! The crates of the workspace are re-exported here so that applications can
//! depend on `warpsim` alone:
//!
//! * [`polyhedra`] — Presburger-style integer sets and affine maps (the isl
//!   substitute).
//! * [`scop`] — the polyhedral program representation: loop/access trees, a
//!   builder AST and a mini-C frontend (the pet substitute).
//! * [`cache_model`] — set-associative caches, the LRU/FIFO/Pseudo-LRU/
//!   Quad-age-LRU replacement policies, write policies, and the memory
//!   system: [`MemoryConfig`](cache_model::MemoryConfig), the one memory
//!   description, holds any number of cache levels and
//!   [`MultiLevelState`](cache_model::MultiLevelState) simulates them on
//!   the flat concrete store through one inclusive access path.
//! * [`simulate`] — classic, non-warping cache simulation (Algorithm 1).
//! * [`warping`] — the paper's contribution: warping symbolic cache
//!   simulation (Algorithm 2).
//! * [`trace_sim`] — trace generation, a Dinero-IV-style trace-driven
//!   simulator and the hardware-measurement stand-in.
//! * [`analytical`] — HayStack- and PolyCache-style analytical baselines.
//! * [`polybench`] — the 30 PolyBench 4.2.1 kernels as SCoPs.
//! * [`engine`] — **the front door**: one backend-polymorphic API over all
//!   of the above.  An [`Engine`](engine::Engine) dispatches
//!   [`SimRequest`](engine::SimRequest)s (kernel × memory × backend) to any
//!   of the five simulators and returns unified, JSON-serializable
//!   [`SimReport`](engine::SimReport)s; request grids fan out across
//!   threads with [`run_batch`](engine::Engine::run_batch).
//!
//! # Quickstart
//!
//! ```
//! use warpsim::prelude::*;
//!
//! // The paper's running example: a 1D stencil ...
//! let kernel = KernelSpec::source(
//!     "stencil",
//!     "double A[1000]; double B[1000];
//!      for (i = 1; i < 999; i++) B[i-1] = A[i-1] + A[i];",
//! );
//! // ... on a two-line fully-associative LRU cache, one array cell per line.
//! let memory = MemoryConfig::from(
//!     CacheConfig::fully_associative(2, 8, ReplacementPolicy::Lru),
//! );
//!
//! // Non-warping and warping simulation agree exactly ...
//! let engine = Engine::new();
//! let reference =
//!     engine.run(&SimRequest::new(kernel.clone(), memory.clone(), Backend::Classic))?;
//! let outcome = engine.run(&SimRequest::new(kernel, memory, Backend::warping()))?;
//! assert_eq!(outcome.result, reference.result);
//! assert_eq!(reference.result.levels[0].misses, 3 + 2 * 997);
//!
//! // ... but warping skips almost all of the accesses.
//! let stats = outcome.warping.unwrap();
//! assert!(stats.warped_accesses > 9 * stats.non_warped_accesses);
//! # Ok::<(), warpsim::engine::EngineError>(())
//! ```
//!
//! Every simulator and model takes the same
//! [`MemoryConfig`](cache_model::MemoryConfig) and reports per-level counts
//! in [`SimulationResult::levels`](simulate::SimulationResult::levels).
//! The per-backend entry points (`simulate_memory`, `WarpingSimulator`,
//! `HaystackModel`, `dinero_style_simulation`, ...) stay public — the
//! engine is a facade over them, not a replacement — but new code should
//! prefer the engine: it is the seam where batching, result caching and
//! serving plug in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use analytical;
pub use cache_model;
pub use engine;
pub use polybench;
pub use polyhedra;
pub use scop;
pub use simulate;
pub use trace_sim;
pub use warping;

/// The most commonly used items, importable with a single `use`.
pub mod prelude {
    pub use analytical::{HaystackModel, PolyCacheModel};
    pub use cache_model::{
        Access, AccessKind, CacheConfig, LevelStats, MemBlock, MemoryConfig, MemoryConfigError,
        MultiAccessOutcome, MultiLevelState, ReplacementPolicy, WritePolicy,
    };
    pub use engine::{
        Backend, Engine, EngineError, KernelSpec, SimReport, SimRequest, WarpingStats,
    };
    pub use polybench::{Dataset, Kernel};
    pub use polyhedra::{Aff, BasicSet, Constraint, Set};
    pub use scop::{parse_scop, ElaborateOptions, Scop};
    pub use simulate::{
        simulate, simulate_memory, MemorySystem, MultiLevelSystem, SimulationResult,
    };
    pub use trace_sim::{dinero_style_simulation, generate_trace, HardwareReference};
    pub use warping::{WarpingOutcome, WarpingSimulator};
}
