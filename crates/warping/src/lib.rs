//! Warping symbolic cache simulation of polyhedral programs.
//!
//! This crate implements the primary contribution of *Warping Cache
//! Simulation of Polyhedral Programs* (Morelli & Reineke, PLDI 2022):
//! a cache simulator whose results are exactly those of classic per-access
//! simulation (Algorithm 1, the [`simulate`] crate), but which exploits the
//! data independence of caches (Theorems 1–4 of the paper) to *warp* —
//! fast-forward — across repetitive portions of the access sequence, making
//! its runtime often independent of the number of memory accesses.
//!
//! # How it works
//!
//! * The simulator operates on **symbolic cache states**: every cache line
//!   carries, next to the concrete memory block, a symbolic label recording
//!   which access node loaded it and at which iteration
//!   ([`symstate`]).
//! * At the top of selected loop iterations the simulator attempts a match
//!   in two phases: it first compares an incrementally maintained,
//!   rotation- and shift-invariant **rolling fingerprint** of the symbolic
//!   state ([`fingerprint`]), and only on a fingerprint hit constructs the
//!   exact rotation-invariant canonical key ([`key`]) — sparse over the
//!   occupied cache sets — and looks it up in a per-loop hash map.  Equal
//!   keys identify cache states that are equal up to a bijection on memory
//!   blocks (Theorem 3); fingerprint collisions are filtered out by the
//!   exact key, so soundness never depends on hash quality.
//! * On a match, the simulator checks the sufficient conditions of the
//!   symbolic warping theorem (Theorem 4) using polyhedral reasoning
//!   ([`plan`]): all accesses of the loop body must shift by one common,
//!   line-aligned stride per period, the access-node domains must be
//!   periodic over the warp window, and every cached line must be consistent
//!   with that shift.  Any check that cannot be decided makes the simulator
//!   fall back to explicit simulation, so miss counts are always exact.
//! * If the checks succeed, the simulation warps: the iteration counter
//!   jumps ahead, miss counters are extrapolated linearly, and the symbolic
//!   cache state is advanced by rotating its sets and shifting its labels
//!   ([`WarpingSimulator`]).
//!
//! # Example
//!
//! ```
//! use cache_model::{CacheConfig, MemoryConfig, ReplacementPolicy};
//! use scop::parse_scop;
//! use simulate::simulate_memory;
//! use warping::WarpingSimulator;
//!
//! let scop = parse_scop(
//!     "double A[32000]; double B[32000];
//!      for (i = 1; i < 31999; i++) B[i-1] = A[i-1] + A[i];",
//! ).unwrap();
//! let config = MemoryConfig::from(CacheConfig::new(32 * 1024, 8, 64, ReplacementPolicy::Plru));
//!
//! let reference = simulate_memory(&scop, &config);
//! let outcome = WarpingSimulator::new(config).run(&scop);
//!
//! // Warping is exact ...
//! assert_eq!(outcome.result.levels[0].misses, reference.levels[0].misses);
//! assert_eq!(outcome.result.accesses, reference.accesses);
//! // ... and skips the bulk of the accesses of this stencil.
//! assert!(outcome.warped_accesses > outcome.non_warped_accesses);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod differential;
pub mod fingerprint;
pub mod key;
pub mod plan;
pub mod simulator;
pub mod symstate;

pub use fingerprint::FingerprintTracker;
pub use key::CanonicalKey;
pub use plan::{LevelWarpMode, WarpPlan};
pub use simulator::{WarpingOutcome, WarpingSimulator};
pub use symstate::{SymLabel, SymLevel, SymSet};
