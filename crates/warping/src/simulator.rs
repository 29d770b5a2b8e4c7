//! The warping symbolic cache simulator (Algorithm 2 of the paper).
//!
//! # The two-phase match pipeline
//!
//! A match attempt no longer builds an exact [`CanonicalKey`] up front.
//! Instead it runs in two phases:
//!
//! 1. **Fingerprint phase** — the rolling level fingerprints (see
//!    [`fingerprint`](crate::fingerprint)) of all levels are combined and
//!    looked up in the per-loop match map.  Fingerprints are maintained
//!    incrementally with per-row dirty bits, so this phase costs time
//!    proportional to the sets touched since the last attempt — not to the
//!    size of the outermost cache level.
//! 2. **Exact phase** — only on a fingerprint hit is the exact canonical
//!    key constructed (itself sparse: O(occupied sets)) and compared.
//!    Soundness is unchanged: a warp still requires exact key equality,
//!    which implies symbolic state equality (Theorem 3).
//!
//! A state's exact key is built lazily: the first sighting of a fingerprint
//! stores only the fingerprint; the second sighting attaches the key; the
//! third sighting can match exactly and warp.  Loops whose states never
//! recur therefore never pay for key construction at all.
//!
//! # Relative-label addressing
//!
//! Keys normalise each level's descendant labels by that **level's epoch**
//! (the warped-iterator stamp of the last label write at the level, see
//! [`SymLevel::epoch_at`]) rather than by the current iterator.  When a
//! match fires, the difference between the two states' normalisers
//! reconstructs each level's true label shift: `period` means the level
//! moves with the loop ([`LevelWarpMode::Shifted`]), `0` means the level is
//! bit-identical and stays put ([`LevelWarpMode::Frozen`] — legal when the
//! block shift is zero or the level saw no traffic during the matched
//! chunk).  This is what lets kernels whose working set fits in the L1 warp
//! over arbitrarily large outer levels: the outer levels' labels froze
//! during warm-up; normalised by the current iterator instead, their keys
//! would drift apart forever even though the states are physically
//! identical.

use crate::fingerprint::MAX_TRACKED_DIMS;
use crate::key::CanonicalKey;
use crate::plan::{plan_warp, LevelWarpMode};
use crate::symstate::SymLevel;
use cache_model::{CacheConfig, HierarchyConfig, LevelStats, MemoryConfig};
use polyhedra::Aff;
use scop::{
    compile, AccessNode, CompiledAccess, CompiledLoop, CompiledNode, EntryBounds, LoopNode, Node,
    Scop,
};
use simulate::SimulationResult;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::time::Instant;

/// The memory system simulated by the warping simulator.
///
/// This is the workspace-wide [`MemoryConfig`] — the old parallel
/// `WarpingMemory` enum (`Single`/`Hierarchy`) is gone; construct a
/// `MemoryConfig` (e.g. via `From<CacheConfig>` or `From<HierarchyConfig>`)
/// and pass it to [`WarpingSimulator::new`].  The warping simulator supports
/// memory systems of any depth ≥ 1.
pub type WarpingMemory = MemoryConfig;

/// The outcome of a warping simulation.
///
/// Equality ignores [`warp_apply_ns`](WarpingOutcome::warp_apply_ns), which
/// is wall-clock telemetry and varies run to run.
#[derive(Clone, Debug, Default)]
pub struct WarpingOutcome {
    /// Access and miss counts, identical to what non-warping simulation
    /// produces.
    pub result: SimulationResult,
    /// Number of accesses that were simulated explicitly.
    pub non_warped_accesses: u64,
    /// Number of accesses that were skipped by warping.
    pub warped_accesses: u64,
    /// Number of successful warp events.
    pub warps: u64,
    /// Number of warp-match attempts (both phases combined).
    pub match_attempts: u64,
    /// Match attempts whose fingerprint found a candidate in the match map
    /// (the only attempts that proceed to the exact phase).
    pub fingerprint_hits: u64,
    /// Number of exact [`CanonicalKey`] constructions.  With the
    /// fingerprint filter enabled this is typically a small fraction of
    /// [`match_attempts`](WarpingOutcome::match_attempts).
    pub exact_key_builds: u64,
    /// Number of levels, summed over applied warps, whose stale (frozen)
    /// labels were matched through epoch normalisation — levels holding
    /// lines that stopped being touched and were recognised as bit-identical
    /// instead of blocking the match.  Every warp that needs a frozen
    /// *descendant* label (e.g. L1-resident kernels over big hierarchies)
    /// shows up here; a frozen level holding only non-descendant
    /// (absolutely encoded) lines also counts, even though an identity
    /// (zero-shift) warp over it would match under current-iterator
    /// normalisation too.
    pub stale_label_renorms: u64,
    /// Wall-clock nanoseconds spent applying warps (counter extrapolation
    /// plus symbolic state advancement).  Ignored by `PartialEq`.
    pub warp_apply_ns: u64,
}

impl PartialEq for WarpingOutcome {
    fn eq(&self, other: &Self) -> bool {
        // warp_apply_ns is timing telemetry, not an outcome.
        self.result == other.result
            && self.non_warped_accesses == other.non_warped_accesses
            && self.warped_accesses == other.warped_accesses
            && self.warps == other.warps
            && self.match_attempts == other.match_attempts
            && self.fingerprint_hits == other.fingerprint_hits
            && self.exact_key_builds == other.exact_key_builds
            && self.stale_label_renorms == other.stale_label_renorms
    }
}

impl Eq for WarpingOutcome {}

impl WarpingOutcome {
    /// The share of accesses that could not be warped (the quantity plotted
    /// at the top of Fig. 6 of the paper), in `[0, 1]`.
    pub fn non_warped_share(&self) -> f64 {
        let total = self.non_warped_accesses + self.warped_accesses;
        if total == 0 {
            0.0
        } else {
            self.non_warped_accesses as f64 / total as f64
        }
    }
}

/// Warp-plan hints a finished run exports for a *similar* future run —
/// typically the next instance of the same kernel family in a tile-size
/// sweep, where the loop structure is identical and only the bounds move.
///
/// Hints are keyed by loop **depth** (the only structural coordinate that
/// transfers across instances whose ASTs differ) and only influence the
/// match-*attempt* schedule: a depth the donor found barren skips the
/// eager phase and probes on the backoff cadence alone, saving the
/// fingerprint/key work that dominates non-warping loops.  Every count a
/// hinted run produces is bit-identical to a cold run's — any warp that
/// does fire is sound regardless of when it was attempted, and skipped
/// attempts only forgo speed, never correctness.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WarpHints {
    /// Depths at which the donor run applied at least one warp, sorted.
    pub warped_depths: Vec<usize>,
    /// Depths at which some loop exhausted its fruitless-attempt budget
    /// without ever warping (and no sibling loop at the depth warped
    /// either), sorted.
    pub barren_depths: Vec<usize>,
}

impl WarpHints {
    /// Whether the donor saw the depth warp.
    pub fn is_warped(&self, depth: usize) -> bool {
        self.warped_depths.binary_search(&depth).is_ok()
    }

    /// Whether the donor gave up on the depth without a single warp.
    pub fn is_barren(&self, depth: usize) -> bool {
        self.barren_depths.binary_search(&depth).is_ok()
    }

    /// Whether the hints carry any information at all.
    pub fn is_empty(&self) -> bool {
        self.warped_depths.is_empty() && self.barren_depths.is_empty()
    }
}

/// Tuning knobs of the warping simulator.
///
/// The defaults keep the overhead of key construction small on loops that
/// never warp while still finding matches whose period is a small multiple
/// of the cache-line phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WarpingOptions {
    /// Number of initial iterations of each loop execution during which a
    /// match is attempted on every iteration.
    pub eager_attempts: u64,
    /// After the eager phase, matches are attempted every `backoff_interval`
    /// iterations.  This bounds the overhead of key construction on loops
    /// that never warp.
    pub backoff_interval: u64,
    /// Maximum number of symbolic states remembered per loop execution.
    pub max_map_entries: usize,
    /// Loops whose trip count (for the current outer iteration) is below
    /// this threshold are simulated without attempting to warp: the possible
    /// gain cannot amortise the cost of key construction.
    pub min_trip_count: i64,
    /// Warping is abandoned for a loop node after this many *costly* match
    /// attempts (across all executions of the node) that did not lead to a
    /// warp.  An attempt counts as costly when it paid for an exact
    /// canonical-key construction, or when it could not even remember the
    /// state because the match map was full; attempts that the fingerprint
    /// filter dismisses cheaply do not count, since the knob exists to cap
    /// overhead, not opportunity.  This bounds the cost on loops whose
    /// states never recur while still allowing matches that only appear
    /// after the cache has warmed up.
    pub max_fruitless_attempts: u64,
    /// Whether match attempts run the cheap fingerprint phase before
    /// constructing exact canonical keys.  Disabling it restores the
    /// exhaustive key-per-attempt pipeline (useful for differential testing
    /// and ablation); results are bit-identical either way.
    pub fingerprint_filter: bool,
}

impl Default for WarpingOptions {
    fn default() -> Self {
        WarpingOptions::DEFAULT
    }
}

impl WarpingOptions {
    /// The default tuning, as a `const` so it can appear in constant
    /// contexts (e.g. backend tables).
    pub const DEFAULT: WarpingOptions = WarpingOptions {
        eager_attempts: 32,
        backoff_interval: 16,
        max_map_entries: 4096,
        min_trip_count: 24,
        max_fruitless_attempts: 512,
        fingerprint_filter: true,
    };

    /// Checks the options for values that would make the simulator loop or
    /// thrash instead of warping.
    ///
    /// # Errors
    ///
    /// * `backoff_interval == 0` — the match-attempt schedule would divide
    ///   by zero once the eager phase ends.
    /// * `max_map_entries == 0` — no symbolic state could ever be
    ///   remembered, so every match attempt would pay the key-construction
    ///   cost without any chance of a warp.
    pub fn validate(&self) -> Result<(), InvalidWarpingOptions> {
        if self.backoff_interval == 0 {
            return Err(InvalidWarpingOptions {
                message: "backoff_interval must be positive (0 would divide by zero in the \
                          match-attempt schedule)",
            });
        }
        if self.max_map_entries == 0 {
            return Err(InvalidWarpingOptions {
                message: "max_map_entries must be positive (0 would attempt matches without \
                          ever remembering a state, thrashing instead of warping)",
            });
        }
        Ok(())
    }
}

/// An invalid [`WarpingOptions`] value, reported by
/// [`WarpingOptions::validate`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InvalidWarpingOptions {
    message: &'static str,
}

impl fmt::Display for InvalidWarpingOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.message)
    }
}

impl std::error::Error for InvalidWarpingOptions {}

/// Per-entry bookkeeping of the per-loop match map of Algorithm 2, keyed by
/// the rolling fingerprint.
#[derive(Clone, Debug)]
struct MatchEntry {
    /// Warped-iterator value at which the state was recorded.
    v: i64,
    /// Counter snapshot at that point.
    counters: Counters,
    /// The per-level label normalisers in effect when the state was
    /// recorded (each level's epoch on the warped dimension, falling back
    /// to `v`).  On a key match, the difference between the current
    /// normalisers and these reconstructs each level's true label shift —
    /// `period` for levels moving with the loop, `0` for frozen levels —
    /// which decides the level's [`LevelWarpMode`].
    epochs: Vec<i64>,
    /// The exact canonical key of the recorded state.  Built lazily: `None`
    /// until the entry's fingerprint is sighted a second time, so loops
    /// whose states never recur never pay for key construction.
    key: Option<CanonicalKey>,
}

/// Snapshot of all monotonically increasing counters, used to extrapolate
/// across warped chunks.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct Counters {
    accesses: u64,
    level: Vec<LevelStats>,
}

/// Per-loop-node data that is invariant across executions of the node:
/// the access nodes below it, their id set, and the common per-iteration
/// address coefficient on the loop's dimension (if any).  Computed once and
/// cached for the whole [`WarpingSimulator::run`], instead of being
/// recollected on every execution of an inner loop.
struct LoopInfo<'a> {
    nodes: Vec<&'a AccessNode>,
    ids: HashSet<usize>,
    uniform_coeff: Option<i64>,
}

/// Per-run context threaded through the tree walk: the address table and
/// the per-node [`LoopInfo`] cache.
struct RunCtx<'a> {
    addresses: Vec<Aff>,
    loops: HashMap<usize, Rc<LoopInfo<'a>>>,
}

/// The warping symbolic cache simulator.
///
/// One generic code path simulates memory systems of any depth ≥ 1: the
/// symbolic levels live in a `Vec<SymLevel>`, and fingerprint maintenance,
/// canonical-key construction, warp planning and warp application all
/// iterate over it.
///
/// See the crate-level documentation for an example.
#[derive(Clone, Debug)]
pub struct WarpingSimulator {
    levels: Vec<SymLevel>,
    options: WarpingOptions,
    /// Thread budget for parallel warp application (see
    /// [`WarpingSimulator::with_threads`]); 1 means sequential.
    warp_threads: usize,
    accesses: u64,
    warped_accesses: u64,
    warps: u64,
    match_attempts: u64,
    fingerprint_hits: u64,
    exact_key_builds: u64,
    stale_label_renorms: u64,
    warp_apply_ns: u64,
    /// Match attempts that did not result in a warp, per loop node (keyed by
    /// the node's address within the SCoP currently being simulated).
    fruitless: HashMap<usize, u64>,
    /// Donor hints from a similar earlier run (see [`WarpHints`]); `None`
    /// runs the cold schedule.
    hints: Option<WarpHints>,
    /// Depths at which this run applied at least one warp.
    warped_depths: HashSet<usize>,
    /// Depths at which some loop exhausted its fruitless budget.
    exhausted_depths: HashSet<usize>,
}

impl WarpingSimulator {
    /// A simulator for a single cache level.  Compatibility wrapper over
    /// [`WarpingSimulator::new`].
    pub fn single(config: CacheConfig) -> Self {
        WarpingSimulator::new(MemoryConfig::from(config))
    }

    /// A simulator for a two-level hierarchy.  Compatibility wrapper over
    /// [`WarpingSimulator::new`].
    pub fn hierarchy(config: HierarchyConfig) -> Self {
        WarpingSimulator::new(MemoryConfig::from(config))
    }

    /// A simulator for any memory system of depth ≥ 1.  The configuration is
    /// [normalized](MemoryConfig::normalized) first, so the hierarchy-wide
    /// write policy governs write allocation at every level, exactly as in
    /// non-warping simulation.
    ///
    /// # Errors
    ///
    /// Infallible today — every valid [`MemoryConfig`] is supported — but
    /// kept fallible so callers stay source-compatible if a future memory
    /// model (e.g. exclusive hierarchies) is only partially covered.
    pub fn try_new(memory: WarpingMemory) -> Result<Self, String> {
        let memory = memory.normalized();
        Ok(WarpingSimulator {
            levels: memory
                .levels()
                .iter()
                .map(|level| SymLevel::new(level.clone()))
                .collect(),
            options: WarpingOptions::default(),
            warp_threads: 1,
            accesses: 0,
            warped_accesses: 0,
            warps: 0,
            match_attempts: 0,
            fingerprint_hits: 0,
            exact_key_builds: 0,
            stale_label_renorms: 0,
            warp_apply_ns: 0,
            fruitless: HashMap::new(),
            hints: None,
            warped_depths: HashSet::new(),
            exhausted_depths: HashSet::new(),
        })
    }

    /// A simulator for any memory system of depth ≥ 1.
    pub fn new(memory: WarpingMemory) -> Self {
        WarpingSimulator::try_new(memory).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Overrides the tuning options.
    ///
    /// # Panics
    ///
    /// Panics if the options fail [`WarpingOptions::validate`]
    /// (`backoff_interval == 0` or `max_map_entries == 0`).
    pub fn with_options(mut self, options: WarpingOptions) -> Self {
        if let Err(e) = options.validate() {
            panic!("invalid warping options: {e}");
        }
        self.options = options;
        self
    }

    /// Grants the simulator a thread budget for parallel warp application
    /// (clamped to at least 1; the default is 1, i.e. sequential).  Warp
    /// application fans out across the rotating levels when the budget
    /// covers one thread per level; each level is rewritten independently,
    /// so results are bit-identical for every budget.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.warp_threads = threads.max(1);
        self
    }

    /// Seeds the match-attempt schedule with a donor run's [`WarpHints`].
    /// Depths the donor found barren skip the eager phase (attempts run on
    /// the backoff cadence alone); everything else is unchanged.  All
    /// simulation counts stay bit-identical to a cold run.
    pub fn with_hints(mut self, hints: WarpHints) -> Self {
        self.hints = if hints.is_empty() { None } else { Some(hints) };
        self
    }

    /// Exports this run's warp-plan facts for donation to a similar future
    /// run (see [`WarpHints`]).  A depth only counts as barren when no loop
    /// at that depth warped, so mixed evidence errs on the side of
    /// attempting.
    pub fn export_hints(&self) -> WarpHints {
        let mut warped: Vec<usize> = self.warped_depths.iter().copied().collect();
        warped.sort_unstable();
        let mut barren: Vec<usize> = self
            .exhausted_depths
            .difference(&self.warped_depths)
            .copied()
            .collect();
        barren.sort_unstable();
        WarpHints {
            warped_depths: warped,
            barren_depths: barren,
        }
    }

    /// Simulates a SCoP and returns the outcome.  The cache state persists
    /// across calls, so SCoPs can be simulated in sequence; use a fresh
    /// simulator for independent runs.
    pub fn run(&mut self, scop: &Scop) -> WarpingOutcome {
        let addresses: Vec<Aff> = {
            let mut v: Vec<(usize, Aff)> = scop
                .access_nodes()
                .map(|a| (a.id, a.address.clone()))
                .collect();
            v.sort_by_key(|(id, _)| *id);
            v.into_iter().map(|(_, a)| a).collect()
        };
        let mut ctx = RunCtx {
            addresses,
            loops: HashMap::new(),
        };
        // The compiled tree mirrors the source tree node for node, so the
        // explicit walk steps both in lockstep and consults the compiled
        // side for hoisted bounds and guards.
        let compiled = compile(scop);
        for (root, croot) in scop.roots().iter().zip(compiled.roots()) {
            self.simulate_node(root, croot, &[], &mut ctx);
        }
        self.outcome()
    }

    /// The accumulated outcome.
    pub fn outcome(&self) -> WarpingOutcome {
        WarpingOutcome {
            result: SimulationResult {
                accesses: self.accesses,
                levels: self.levels.iter().map(|l| l.stats).collect(),
            },
            non_warped_accesses: self.accesses - self.warped_accesses,
            warped_accesses: self.warped_accesses,
            warps: self.warps,
            match_attempts: self.match_attempts,
            fingerprint_hits: self.fingerprint_hits,
            exact_key_builds: self.exact_key_builds,
            stale_label_renorms: self.stale_label_renorms,
            warp_apply_ns: self.warp_apply_ns,
        }
    }

    fn counters(&self) -> Counters {
        Counters {
            accesses: self.accesses,
            level: self.levels.iter().map(|l| l.stats).collect(),
        }
    }

    fn simulate_node<'a>(
        &mut self,
        node: &'a Node,
        cnode: &CompiledNode,
        outer: &[i64],
        ctx: &mut RunCtx<'a>,
    ) {
        match (node, cnode) {
            (Node::Access(a), CompiledNode::Access(ca)) => self.simulate_access(a, ca, outer),
            (Node::Loop(l), CompiledNode::Loop(cl)) => self.simulate_loop(l, cl, outer, ctx),
            _ => unreachable!("the compiled tree mirrors the source tree"),
        }
    }

    fn simulate_access(&mut self, access: &AccessNode, ca: &CompiledAccess, outer: &[i64]) {
        // A hoisted-trivial guard means membership is implied by the
        // enclosing exact loops — skip the per-point union-set check.
        if !ca.guard_is_trivial() && !access.domain.contains(outer) {
            return;
        }
        let address = access.address_at(outer);
        self.accesses += 1;
        // The inclusive walk of the N-level hierarchy: each level is only
        // consulted — and updated — when the previous one misses.
        for level in &mut self.levels {
            let block = level.block_of_address(address);
            if level.access(block, access.kind, access.id, outer) {
                break;
            }
        }
    }

    /// The per-node [`LoopInfo`], computed on first sight and cached for
    /// the rest of the run.
    fn loop_info<'a>(loop_node: &'a LoopNode, ctx: &mut RunCtx<'a>) -> Rc<LoopInfo<'a>> {
        let node_key = loop_node as *const LoopNode as usize;
        if let Some(info) = ctx.loops.get(&node_key) {
            return Rc::clone(info);
        }
        let nodes = descendants(loop_node);
        let ids: HashSet<usize> = nodes.iter().map(|a| a.id).collect();
        let uniform_coeff = uniform_coefficient(&nodes, loop_node.depth - 1);
        let info = Rc::new(LoopInfo {
            nodes,
            ids,
            uniform_coeff,
        });
        ctx.loops.insert(node_key, Rc::clone(&info));
        info
    }

    /// Combines the per-level rolling fingerprints for a warp attempt at
    /// the given depth.  `None` when the warped dimension is beyond the
    /// tracked range, in which case the caller falls back to exhaustive
    /// exact-key matching.
    fn combined_fingerprint(&mut self, warp_depth: usize) -> Option<u64> {
        let dim = warp_depth - 1;
        if dim >= MAX_TRACKED_DIMS {
            return None;
        }
        let mut combined: u64 = 0x517c_c1b7_2722_0a95;
        for level in &mut self.levels {
            level.prepare_match();
            let fp = level.fingerprint(dim).expect("dim is tracked");
            combined = (combined ^ fp)
                .wrapping_mul(0x0000_0100_0000_01b3)
                .rotate_left(17);
        }
        Some(combined)
    }

    /// The per-level label normalisers for a match attempt at loop depth
    /// `depth` with current warped-iterator value `v`: each level's epoch on
    /// the warped dimension, falling back to `v` for levels without a stamp
    /// that deep (empty levels, or levels last written by a shallower
    /// access — the fallback normalises them by the current iterator).
    fn epoch_normalizers(&self, depth: usize, v: i64) -> Vec<i64> {
        let dim = depth - 1;
        self.levels
            .iter()
            .map(|level| level.epoch_at(dim).unwrap_or(v))
            .collect()
    }

    fn build_key(
        &mut self,
        descendant_ids: &HashSet<usize>,
        depth: usize,
        normalizers: &[i64],
    ) -> CanonicalKey {
        self.exact_key_builds += 1;
        CanonicalKey::of_levels(&self.levels, descendant_ids, depth, normalizers)
    }

    fn simulate_loop<'a>(
        &mut self,
        loop_node: &'a LoopNode,
        cl: &CompiledLoop,
        outer: &[i64],
        ctx: &mut RunCtx<'a>,
    ) {
        let depth = loop_node.depth;
        // Hoisted bounds: an exact entry interval makes the per-iteration
        // domain checks redundant, and an exactly-empty entry returns
        // without the lexmin/lexmax searches.
        let bounds = cl.entry_bounds(outer);
        if matches!(bounds, EntryBounds::Empty) {
            return;
        }
        let exact = matches!(bounds, EntryBounds::Exact(..));
        if loop_node.stride < 0 {
            // Decreasing loops walk lexmax-first.  They are simulated
            // explicitly: warp matching assumes increasing iterators (the
            // match map stores the *earlier* state), and extending it to
            // negative periods is an open ROADMAP item.
            let (mut i, v_lo) = match bounds {
                EntryBounds::Exact(lo, hi) => {
                    let mut i = Vec::with_capacity(depth);
                    i.extend_from_slice(outer);
                    i.push(hi);
                    (i, lo)
                }
                _ => {
                    let Some(i) = loop_node.last(outer) else {
                        return;
                    };
                    let Some(lowest) = loop_node.initial(outer) else {
                        return;
                    };
                    (i, lowest[depth - 1])
                }
            };
            while i[depth - 1] >= v_lo {
                if exact || loop_node.domain.contains(&i) {
                    for (child, cchild) in loop_node.children.iter().zip(cl.children()) {
                        self.simulate_node(child, cchild, &i, ctx);
                    }
                }
                // Stepping below `i64::MIN` ends the loop.
                let Some(next) = i[depth - 1].checked_add(loop_node.stride) else {
                    return;
                };
                i[depth - 1] = next;
            }
            return;
        }
        let (mut i, v_last) = match bounds {
            EntryBounds::Exact(lo, hi) => {
                let mut i = Vec::with_capacity(depth);
                i.extend_from_slice(outer);
                i.push(lo);
                (i, hi)
            }
            _ => {
                let Some(i) = loop_node.initial(outer) else {
                    return;
                };
                let Some(last) = loop_node.last(outer) else {
                    return;
                };
                (i, last[depth - 1])
            }
        };
        let stride = loop_node.stride.max(1);
        // Cheap gating: warping at this loop can only ever succeed if every
        // access below it shifts by the same amount per iteration (see
        // `plan_warp`), and it can only pay off if the loop has enough
        // iterations to amortise the cost of match attempts.  The loop
        // structure facts come from the per-run cache, so inner loops do not
        // recollect their descendants on every outer iteration.
        let trip_count = (v_last - i[depth - 1]) / stride + 1;
        let node_key = loop_node as *const LoopNode as usize;
        let mut fruitless = self.fruitless.get(&node_key).copied().unwrap_or(0);
        let info = Self::loop_info(loop_node, ctx);
        let warpable = trip_count >= self.options.min_trip_count
            && !info.nodes.is_empty()
            && info.uniform_coeff.is_some();
        // Donor hints demote the eager phase on depths a similar run
        // already probed exhaustively without a single warp; a depth the
        // donor saw warp (or never saw at all) keeps the cold schedule.
        let eager = match &self.hints {
            Some(hints) => !hints.is_barren(depth) || hints.is_warped(depth),
            None => true,
        };
        let mut map: HashMap<u64, MatchEntry> = HashMap::new();
        let mut iteration_index: u64 = 0;

        while i[depth - 1] <= v_last {
            let v1 = i[depth - 1];
            if warpable
                && fruitless < self.options.max_fruitless_attempts
                && self.should_attempt(iteration_index, eager)
            {
                if let Some(warped) = self.attempt_match(
                    &info,
                    &ctx.addresses,
                    depth,
                    outer,
                    v1,
                    v_last,
                    &mut map,
                    &mut fruitless,
                ) {
                    let period_total = warped; // iterator units warped across
                    i[depth - 1] += period_total;
                    fruitless = 0;
                    // Iterator units advance by `stride` per iteration.
                    iteration_index += (period_total / stride) as u64;
                    // Do not consume this iteration: re-enter the loop
                    // header so the landed-on iteration is simulated (or
                    // warped again).
                    continue;
                }
            }
            if exact || loop_node.domain.contains(&i) {
                for (child, cchild) in loop_node.children.iter().zip(cl.children()) {
                    self.simulate_node(child, cchild, &i, ctx);
                }
            }
            // Stepping past `i64::MAX` ends the loop.
            let Some(next) = i[depth - 1].checked_add(loop_node.stride) else {
                break;
            };
            i[depth - 1] = next;
            iteration_index += 1;
        }
        if warpable {
            if fruitless >= self.options.max_fruitless_attempts {
                self.exhausted_depths.insert(depth);
            }
            self.fruitless.insert(node_key, fruitless);
        }
    }

    /// One two-phase match attempt at iterator value `v1`.  Returns the
    /// number of iterator units warped across on success (the caller
    /// advances the loop), `None` otherwise.
    #[allow(clippy::too_many_arguments)]
    fn attempt_match(
        &mut self,
        info: &LoopInfo<'_>,
        addresses: &[Aff],
        depth: usize,
        outer: &[i64],
        v1: i64,
        v_last: i64,
        map: &mut HashMap<u64, MatchEntry>,
        fruitless: &mut u64,
    ) -> Option<i64> {
        self.match_attempts += 1;
        // The per-level label normalisers of this attempt's key: the level
        // epochs (or the current iterator value, see `epoch_normalizers`).
        let normalizers = self.epoch_normalizers(depth, v1);
        // Phase 1: the cheap rolling fingerprint (when enabled and the
        // warped dimension is tracked); otherwise fall back to hashing the
        // exact key, i.e. the exhaustive pipeline.  Only attempts that pay
        // for an exact key — or that cannot even be remembered — count
        // toward the fruitless-attempt budget: the budget caps overhead,
        // and fingerprint-dismissed attempts are nearly free.
        let filtered = self.options.fingerprint_filter;
        let (slot, mut current_key) =
            match filtered.then(|| self.combined_fingerprint(depth)).flatten() {
                Some(fp) => (fp, None),
                None => {
                    *fruitless += 1;
                    let key = self.build_key(&info.ids, depth, &normalizers);
                    let mut hasher = std::collections::hash_map::DefaultHasher::new();
                    key.hash(&mut hasher);
                    (hasher.finish(), Some(key))
                }
            };
        let Some(entry) = map.get(&slot) else {
            if map.len() < self.options.max_map_entries {
                map.insert(
                    slot,
                    MatchEntry {
                        v: v1,
                        counters: self.counters(),
                        epochs: normalizers,
                        key: current_key,
                    },
                );
            } else {
                // Pure overhead with no future benefit: the state cannot be
                // remembered, so this attempt can never enable a warp.
                *fruitless += 1;
            }
            return None;
        };
        if current_key.is_none() {
            self.fingerprint_hits += 1;
            *fruitless += 1;
        }
        // Phase 2: the exact canonical key decides.
        let key = current_key
            .take()
            .unwrap_or_else(|| self.build_key(&info.ids, depth, &normalizers));
        if entry.key.as_ref() != Some(&key) {
            // Either the stored state's key was never built (first
            // re-sighting of its fingerprint) or the fingerprints collided:
            // re-anchor the slot on the current state, now with its key.
            map.insert(
                slot,
                MatchEntry {
                    v: v1,
                    counters: self.counters(),
                    epochs: normalizers,
                    key: Some(key),
                },
            );
            return None;
        }
        let period = v1 - entry.v;
        // Equal keys say each level's labels moved uniformly; the normaliser
        // difference says by *how much*.  A level that advanced by exactly
        // one period moves with the loop (shifted); a level whose labels
        // did not move at all is bit-identical between the matched states
        // (frozen) — sound to leave in place when either the block shift is
        // zero (π is the identity, an identical level trivially agrees) or
        // the level saw no traffic during the chunk (the repeating access
        // pattern never descends to it, so it stays untouched across the
        // window).  Any other per-level shift is inconsistent with a warp.
        let byte_shift_per_period = info
            .uniform_coeff
            .expect("attempts are gated on a uniform coefficient")
            * period;
        let chunk = self.counters();
        let mut modes = Vec::with_capacity(self.levels.len());
        for (idx, (&now, &then)) in normalizers.iter().zip(&entry.epochs).enumerate() {
            let label_shift = now - then;
            if label_shift == period {
                modes.push(LevelWarpMode::Shifted);
            } else if label_shift == 0 {
                let chunk_traffic = chunk.level[idx].accesses - entry.counters.level[idx].accesses;
                if byte_shift_per_period != 0 && chunk_traffic != 0 {
                    return None;
                }
                modes.push(LevelWarpMode::Frozen);
            } else {
                return None;
            }
        }
        let plan = plan_warp(
            &info.nodes,
            &info.ids,
            &self.levels,
            &modes,
            depth,
            outer,
            entry.v,
            v1,
            v_last,
        )?;
        debug_assert_eq!(
            plan.byte_shift_per_chunk, byte_shift_per_period,
            "the plan's shift must agree with the gating coefficient"
        );
        let warp_start = Instant::now();
        let chunk_accesses = chunk.accesses - entry.counters.accesses;
        // Extrapolate the counters across the warped chunks
        // (Equation 19 / line 12 of Algorithm 2).
        let n = plan.chunks as u64;
        self.accesses += n * chunk_accesses;
        self.warped_accesses += n * chunk_accesses;
        for (idx, level) in self.levels.iter_mut().enumerate() {
            let diff_hits = chunk.level[idx].hits - entry.counters.level[idx].hits;
            let diff_misses = chunk.level[idx].misses - entry.counters.level[idx].misses;
            level.stats.hits += n * diff_hits;
            level.stats.misses += n * diff_misses;
            level.stats.accesses += n * (diff_hits + diff_misses);
        }
        // Advance the symbolic cache state (Equation 18), fanning the
        // per-level rewrites out over the thread budget.  Frozen levels are
        // skipped wholesale: their state — labels, epoch, MRU anchor —
        // stays exactly where the warm-up left it, which is also what
        // explicit simulation of the warped window would have produced (the
        // window never touches them).
        let total_shift = plan.byte_shift_per_chunk * plan.chunks;
        let warp = |level: &mut SymLevel| {
            level.apply_warp(
                addresses,
                &info.ids,
                depth,
                period,
                plan.chunks,
                total_shift,
            )
        };
        let rotating = self
            .levels
            .iter_mut()
            .zip(&modes)
            .filter(|(_, mode)| **mode == LevelWarpMode::Shifted)
            .map(|(level, _)| level);
        // One thread per rotating level when the budget covers them all
        // (frozen levels spawn no work and do not dilute the budget); a
        // smaller budget stays sequential, so the number of running threads
        // never exceeds it.
        let shifted = modes
            .iter()
            .filter(|m| **m == LevelWarpMode::Shifted)
            .count();
        if shifted > 1 && self.warp_threads >= shifted {
            std::thread::scope(|scope| {
                for level in rotating {
                    scope.spawn(|| warp(level));
                }
            });
        } else {
            rotating.for_each(warp);
        }
        // Telemetry: frozen levels that actually hold stale lines are the
        // matches only epoch normalisation can make.
        self.stale_label_renorms += self
            .levels
            .iter()
            .zip(&modes)
            .filter(|(level, mode)| **mode == LevelWarpMode::Frozen && level.occupied_len() > 0)
            .count() as u64;
        self.warps += 1;
        self.warped_depths.insert(depth);
        self.warp_apply_ns += warp_start.elapsed().as_nanos() as u64;
        Some(plan.chunks * period)
    }

    fn should_attempt(&self, iteration_index: u64, eager: bool) -> bool {
        (eager && iteration_index < self.options.eager_attempts)
            || iteration_index.is_multiple_of(self.options.backoff_interval)
    }
}

/// The common per-iteration byte-shift coefficient of all access nodes on
/// the given dimension, if they agree (`None` if they differ, in which case
/// warping at that loop can never satisfy the uniform-shift condition).
fn uniform_coefficient(nodes: &[&AccessNode], dim: usize) -> Option<i64> {
    let mut common = None;
    for node in nodes {
        let c = node.address.coeff(dim);
        match common {
            None => common = Some(c),
            Some(existing) if existing == c => {}
            Some(_) => return None,
        }
    }
    common
}

/// Collects the access nodes below a loop node.
fn descendants(loop_node: &LoopNode) -> Vec<&AccessNode> {
    let mut out = Vec::new();
    let mut stack: Vec<&Node> = loop_node.children.iter().collect();
    while let Some(node) = stack.pop() {
        match node {
            Node::Access(a) => out.push(a),
            Node::Loop(l) => stack.extend(l.children.iter()),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_model::ReplacementPolicy;
    use scop::parse_scop;
    use simulate::{simulate_hierarchy, simulate_single};

    fn stencil(n: i64) -> Scop {
        parse_scop(&format!(
            "double A[{n}]; double B[{n}];\n\
             for (i = 1; i < {m}; i++) B[i-1] = A[i-1] + A[i];",
            n = n,
            m = n - 1
        ))
        .unwrap()
    }

    #[test]
    fn warping_is_exact_on_the_running_example() {
        let scop = stencil(1000);
        let config = CacheConfig::fully_associative(2, 8, ReplacementPolicy::Lru);
        let reference = simulate_single(&scop, &config);
        let outcome = WarpingSimulator::single(config).run(&scop);
        assert_eq!(outcome.result, reference);
        assert!(outcome.warps >= 1, "the stencil must warp");
        assert!(
            outcome.non_warped_accesses < reference.accesses / 10,
            "most accesses are warped ({} of {})",
            outcome.non_warped_accesses,
            reference.accesses
        );
    }

    #[test]
    fn warping_is_exact_on_a_set_associative_plru_cache() {
        let scop = stencil(4000);
        let config = CacheConfig::new(4 * 1024, 8, 64, ReplacementPolicy::Plru);
        let reference = simulate_single(&scop, &config);
        let outcome = WarpingSimulator::single(config).run(&scop);
        assert_eq!(outcome.result, reference);
        assert!(outcome.warps >= 1);
    }

    #[test]
    fn warping_is_exact_for_all_policies() {
        let scop = stencil(3000);
        for policy in ReplacementPolicy::ALL {
            let config = CacheConfig::new(2 * 1024, 4, 64, policy);
            let reference = simulate_single(&scop, &config);
            let outcome = WarpingSimulator::single(config).run(&scop);
            assert_eq!(outcome.result, reference, "{policy}");
        }
    }

    #[test]
    fn warping_is_exact_on_a_two_level_hierarchy() {
        let scop = stencil(3000);
        let config = HierarchyConfig::new(
            CacheConfig::new(1024, 4, 64, ReplacementPolicy::Lru),
            CacheConfig::new(8 * 1024, 8, 64, ReplacementPolicy::Lru),
        );
        let reference = simulate_hierarchy(&scop, &config);
        let outcome = WarpingSimulator::hierarchy(config).run(&scop);
        assert_eq!(outcome.result, reference);
    }

    #[test]
    fn triangular_matvec_is_exact() {
        let scop = parse_scop(
            "double A[200][200]; double x[200]; double c[200];\n\
             for (i = 0; i < 200; i++) {\n\
               c[i] = 0;\n\
               for (j = i; j < 200; j++) c[i] = c[i] + A[i][j] * x[j];\n\
             }",
        )
        .unwrap();
        let config = CacheConfig::new(2 * 1024, 4, 64, ReplacementPolicy::Lru);
        let reference = simulate_single(&scop, &config);
        let outcome = WarpingSimulator::single(config).run(&scop);
        assert_eq!(outcome.result, reference);
    }

    #[test]
    fn guarded_kernel_is_exact() {
        let scop = parse_scop(
            "double A[3000]; double B[3000];\n\
             for (i = 1; i < 2999; i++) if (i < 1500) B[i-1] = A[i-1] + A[i];",
        )
        .unwrap();
        let config = CacheConfig::new(1024, 4, 64, ReplacementPolicy::Lru);
        let reference = simulate_single(&scop, &config);
        let outcome = WarpingSimulator::single(config).run(&scop);
        assert_eq!(outcome.result, reference);
    }

    #[test]
    fn multiple_loop_nests_are_exact() {
        let scop = parse_scop(
            "double A[2000]; double B[2000]; double C[2000];\n\
             for (i = 0; i < 2000; i++) B[i] = A[i];\n\
             for (j = 0; j < 2000; j++) C[j] = B[j] + A[j];",
        )
        .unwrap();
        let config = CacheConfig::new(2 * 1024, 8, 64, ReplacementPolicy::Plru);
        let reference = simulate_single(&scop, &config);
        let outcome = WarpingSimulator::single(config).run(&scop);
        assert_eq!(outcome.result, reference);
    }

    #[test]
    fn options_validation_rejects_degenerate_knobs() {
        assert!(WarpingOptions::default().validate().is_ok());
        let zero_backoff = WarpingOptions {
            backoff_interval: 0,
            ..WarpingOptions::default()
        };
        assert!(zero_backoff
            .validate()
            .unwrap_err()
            .to_string()
            .contains("backoff_interval"));
        let zero_map = WarpingOptions {
            max_map_entries: 0,
            ..WarpingOptions::default()
        };
        assert!(zero_map
            .validate()
            .unwrap_err()
            .to_string()
            .contains("max_map_entries"));
    }

    #[test]
    #[should_panic(expected = "backoff_interval")]
    fn with_options_panics_on_zero_backoff() {
        let config = CacheConfig::fully_associative(2, 8, ReplacementPolicy::Lru);
        let _ = WarpingSimulator::single(config).with_options(WarpingOptions {
            backoff_interval: 0,
            ..WarpingOptions::default()
        });
    }

    #[test]
    fn memory_config_construction_matches_dedicated_constructors() {
        let scop = stencil(1000);
        let single = CacheConfig::fully_associative(2, 8, ReplacementPolicy::Lru);
        let from_memory = WarpingSimulator::new(WarpingMemory::from(single.clone())).run(&scop);
        let direct = WarpingSimulator::single(single).run(&scop);
        assert_eq!(from_memory, direct);

        let hierarchy = HierarchyConfig::new(
            CacheConfig::new(1024, 4, 64, ReplacementPolicy::Lru),
            CacheConfig::new(8 * 1024, 8, 64, ReplacementPolicy::Lru),
        );
        let from_memory = WarpingSimulator::new(WarpingMemory::from(hierarchy.clone())).run(&scop);
        let direct = WarpingSimulator::hierarchy(hierarchy).run(&scop);
        assert_eq!(from_memory, direct);
    }

    #[test]
    fn three_level_memory_is_exact() {
        let scop = stencil(3000);
        let memory = WarpingMemory::new(vec![
            CacheConfig::with_sets(2, 2, 64, ReplacementPolicy::Lru),
            CacheConfig::with_sets(4, 4, 64, ReplacementPolicy::Lru),
            CacheConfig::with_sets(8, 8, 64, ReplacementPolicy::Lru),
        ])
        .unwrap();
        let reference = simulate::simulate_memory(&scop, &memory);
        let outcome = WarpingSimulator::new(memory).run(&scop);
        assert_eq!(outcome.result, reference);
        assert_eq!(outcome.result.depth(), 3);
        assert!(outcome.warps >= 1, "the stencil must warp at depth 3");
    }

    #[test]
    fn strided_stencil_is_exact_and_warps() {
        // A stride-2 stencil: the per-iteration byte shift is 16, so warping
        // must find line-aligned periods on the stride grid.
        let scop = parse_scop(
            "double A[8000]; double B[8000];\n\
             for (i = 1; i < 7999; i += 2) B[i-1] = A[i-1] + A[i];",
        )
        .unwrap();
        for policy in ReplacementPolicy::ALL {
            let config = CacheConfig::new(2 * 1024, 4, 64, policy);
            let reference = simulate_single(&scop, &config);
            let outcome = WarpingSimulator::single(config).run(&scop);
            assert_eq!(outcome.result, reference, "{policy}");
        }
        let config = CacheConfig::new(2 * 1024, 4, 64, ReplacementPolicy::Lru);
        let outcome = WarpingSimulator::single(config).run(&scop);
        assert!(outcome.warps >= 1, "the strided stencil must warp");
    }

    #[test]
    fn strided_loop_on_a_hierarchy_is_exact() {
        let scop = parse_scop(
            "double A[6000];\n\
             for (i = 0; i < 6000; i += 3) A[i] = A[i];",
        )
        .unwrap();
        let memory = WarpingMemory::two_level(
            CacheConfig::new(1024, 4, 64, ReplacementPolicy::Plru),
            CacheConfig::new(8 * 1024, 8, 64, ReplacementPolicy::Plru),
        );
        let reference = simulate::simulate_memory(&scop, &memory);
        let outcome = WarpingSimulator::new(memory).run(&scop);
        assert_eq!(outcome.result, reference);
    }

    #[test]
    fn small_working_sets_do_not_warp_incorrectly() {
        // jacobi-1d-like situation: the working set fits in the cache, so
        // warping opportunities are limited but correctness must hold.
        let scop = stencil(64);
        let config = CacheConfig::new(32 * 1024, 8, 64, ReplacementPolicy::Plru);
        let reference = simulate_single(&scop, &config);
        let outcome = WarpingSimulator::single(config).run(&scop);
        assert_eq!(outcome.result, reference);
    }

    #[test]
    fn fingerprint_filter_matches_exhaustive_matching() {
        // The two pipelines must produce identical simulation results; the
        // filtered one must build far fewer exact keys.
        let scop = stencil(4000);
        let memory = WarpingMemory::two_level(
            CacheConfig::new(1024, 4, 64, ReplacementPolicy::Lru),
            CacheConfig::new(8 * 1024, 8, 64, ReplacementPolicy::Lru),
        );
        let filtered = WarpingSimulator::new(memory.clone())
            .with_options(WarpingOptions {
                fingerprint_filter: true,
                ..WarpingOptions::default()
            })
            .run(&scop);
        let exhaustive = WarpingSimulator::new(memory)
            .with_options(WarpingOptions {
                fingerprint_filter: false,
                ..WarpingOptions::default()
            })
            .run(&scop);
        assert_eq!(
            filtered.result, exhaustive.result,
            "the filter must not change any simulation count"
        );
        assert!(filtered.warps >= 1);
        assert!(exhaustive.warps >= 1);
        assert_eq!(
            exhaustive.exact_key_builds, exhaustive.match_attempts,
            "the exhaustive pipeline builds a key per attempt"
        );
        assert!(
            filtered.exact_key_builds < filtered.match_attempts,
            "the filter must skip key construction on fingerprint misses \
             ({} builds, {} attempts)",
            filtered.exact_key_builds,
            filtered.match_attempts
        );
    }

    #[test]
    fn threaded_warp_application_is_bit_identical() {
        // The arrays exceed every level, so all three levels reach a
        // periodic steady state and rotate together: with a budget of four
        // threads each rotating level is warped on its own thread.
        let scop = stencil(75_000);
        let memory = WarpingMemory::new(vec![
            CacheConfig::with_sets(64, 2, 8, ReplacementPolicy::Lru),
            CacheConfig::with_sets(512, 2, 8, ReplacementPolicy::Lru),
            CacheConfig::with_sets(4096, 2, 8, ReplacementPolicy::Lru),
        ])
        .unwrap();
        let sequential = WarpingSimulator::new(memory.clone()).run(&scop);
        let parallel = WarpingSimulator::new(memory).with_threads(4).run(&scop);
        assert_eq!(
            sequential, parallel,
            "thread budget must not change anything"
        );
        assert!(parallel.warps >= 1);
    }

    #[test]
    fn donor_hints_keep_counts_bit_identical() {
        // The donor run exports its warp-plan facts; a hinted rerun of a
        // *different* (neighbouring) instance must produce exactly the
        // counts a cold run produces — hints only reschedule attempts.
        let memory = WarpingMemory::two_level(
            CacheConfig::new(1024, 4, 64, ReplacementPolicy::Lru),
            CacheConfig::new(8 * 1024, 8, 64, ReplacementPolicy::Lru),
        );
        let mut donor_sim = WarpingSimulator::new(memory.clone());
        let donor_outcome = donor_sim.run(&stencil(4000));
        assert!(donor_outcome.warps >= 1);
        let hints = donor_sim.export_hints();
        assert!(
            hints.is_warped(1),
            "the stencil warps at depth 1: {hints:?}"
        );

        for n in [3500, 4500] {
            let scop = stencil(n);
            let cold = WarpingSimulator::new(memory.clone()).run(&scop);
            let hinted = WarpingSimulator::new(memory.clone())
                .with_hints(hints.clone())
                .run(&scop);
            assert_eq!(
                hinted.result, cold.result,
                "hints must not change any simulation count (n = {n})"
            );
        }

        // A barren hint demotes the eager phase: fewer match attempts on a
        // loop that never warps, same counts.  The triangular matvec's
        // inner loop exhausts its budget without warping on a tiny cache.
        let tri = parse_scop(
            "double A[200][200]; double x[200]; double c[200];\n\
             for (i = 0; i < 200; i++) {\n\
               c[i] = 0;\n\
               for (j = i; j < 200; j++) c[i] = c[i] + A[i][j] * x[j];\n\
             }",
        )
        .unwrap();
        let tiny = WarpingMemory::from(CacheConfig::with_sets(2, 2, 64, ReplacementPolicy::Lru));
        let mut cold_sim = WarpingSimulator::new(tiny.clone());
        let cold = cold_sim.run(&tri);
        let tri_hints = cold_sim.export_hints();
        if !tri_hints.barren_depths.is_empty() {
            let hinted = WarpingSimulator::new(tiny).with_hints(tri_hints).run(&tri);
            assert_eq!(hinted.result, cold.result);
            assert!(
                hinted.match_attempts <= cold.match_attempts,
                "barren hints must not add attempts ({} > {})",
                hinted.match_attempts,
                cold.match_attempts
            );
        }
    }

    #[test]
    fn telemetry_counters_are_consistent() {
        let scop = stencil(3000);
        let config = CacheConfig::new(2 * 1024, 4, 64, ReplacementPolicy::Lru);
        let outcome = WarpingSimulator::single(config).run(&scop);
        assert!(outcome.match_attempts >= outcome.fingerprint_hits);
        assert!(outcome.match_attempts >= outcome.exact_key_builds);
        assert!(outcome.fingerprint_hits >= outcome.warps);
        assert!(outcome.warps >= 1);
    }
}
