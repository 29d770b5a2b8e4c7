//! Analytical cache-model baselines.
//!
//! The paper compares warping cache simulation against two analytical
//! models: HayStack (Gysi et al., PLDI 2019) and PolyCache (Bao et al.,
//! POPL 2018).  Neither tool is available in this reproduction, so this
//! crate provides stand-ins that compute the *same cache models* — the miss
//! counts the tools would report — from the SCoP's access sequence:
//!
//! * [`haystack`] models a fully-associative LRU cache via exact stack
//!   distances (Mattson et al.).  A single pass yields the complete stack
//!   distance histogram, from which the number of misses of *any* capacity
//!   follows immediately — the property HayStack exploits analytically.
//! * [`polycache`] models multi-level set-associative LRU caches by
//!   computing stack distances independently per cache set and filtering
//!   the L2 access stream through the L1 misses, mirroring PolyCache's
//!   per-set, per-level decomposition.
//!
//! The runtime of these stand-ins is `O(N log N)` in the number of accesses
//! rather than problem-size-independent; EXPERIMENTS.md discusses how this
//! affects the runtime comparisons of Fig. 8 and Fig. 9.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod haystack;
pub mod polycache;

pub use haystack::{HaystackModel, StackDistanceProfile};
pub use polycache::PolyCacheModel;
