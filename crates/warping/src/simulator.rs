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
//! # The explicit walk
//!
//! Between warps the simulator walks the compiled SCoP ([`scop::compile()`])
//! alone: each loop entry iterates as [`CompiledLoop::entry`] derives it,
//! guards are the compiled guard plans, and addresses are the walk's
//! strength-reduced bases ([`WalkScratch::address`]).  A warp jumps the
//! loop's iterator — and with it the bases — forward by whole periods
//! through [`CompiledLoop::advance`], exactly like an ordinary step.  Only
//! warp planning reads the source tree: the polyhedral domains of the
//! access nodes below the warping loop.
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
use cache_model::{LevelStats, MemoryConfig};
use scop::{compile, AccessNode, CompiledAccess, CompiledLoop, CompiledNode, Scop, WalkScratch};
use simulate::SimulationResult;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::time::Instant;

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
    accesses: u64,
    warped_accesses: u64,
    warps: u64,
    match_attempts: u64,
    fingerprint_hits: u64,
    exact_key_builds: u64,
    stale_label_renorms: u64,
    warp_apply_ns: u64,
    /// The explicit walk's iteration vector and strength-reduced access
    /// addresses, for the SCoP currently being simulated.
    scratch: WalkScratch,
    /// Match attempts that did not result in a warp during the current
    /// run, per loop ([`CompiledLoop::index`]).
    fruitless: Vec<u64>,
    /// Donor hints from a similar earlier run (see [`WarpHints`]); `None`
    /// runs the cold schedule.
    hints: Option<WarpHints>,
    /// Depths at which this run applied at least one warp.
    warped_depths: HashSet<usize>,
    /// Depths at which some loop exhausted its fruitless budget.
    exhausted_depths: HashSet<usize>,
}

impl WarpingSimulator {
    /// A simulator for any memory system of depth ≥ 1.  The configuration is
    /// [normalized](MemoryConfig::normalized) first, so the hierarchy-wide
    /// write policy governs write allocation at every level, exactly as in
    /// non-warping simulation.
    pub fn new(memory: MemoryConfig) -> Self {
        let memory = memory.normalized();
        WarpingSimulator {
            levels: memory
                .levels()
                .iter()
                .map(|level| SymLevel::new(level.clone()))
                .collect(),
            options: WarpingOptions::default(),
            accesses: 0,
            warped_accesses: 0,
            warps: 0,
            match_attempts: 0,
            fingerprint_hits: 0,
            exact_key_builds: 0,
            stale_label_renorms: 0,
            warp_apply_ns: 0,
            scratch: WalkScratch::default(),
            fruitless: Vec::new(),
            hints: None,
            warped_depths: HashSet::new(),
            exhausted_depths: HashSet::new(),
        }
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
        // The explicit walk steps the compiled tree alone; warp planning
        // reads the polyhedral access domains, indexed by node id.
        let compiled = compile(scop);
        let mut nodes: Vec<&AccessNode> = scop.access_nodes().collect();
        nodes.sort_unstable_by_key(|a| a.id);
        self.scratch = compiled.new_scratch();
        self.fruitless = vec![0; compiled.num_loops()];
        for root in compiled.roots() {
            self.scratch.start_at(root, &[]);
            self.simulate_node(root, &nodes);
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

    fn simulate_node(&mut self, node: &CompiledNode, nodes: &[&AccessNode]) {
        match node {
            CompiledNode::Access(a) => self.simulate_access(a),
            CompiledNode::Loop(l) => self.simulate_loop(l, nodes),
        }
    }

    fn simulate_access(&mut self, a: &CompiledAccess) {
        let iv = self.scratch.iv();
        if !a.guard_holds(iv) {
            return;
        }
        let address = self.scratch.address(a);
        self.accesses += 1;
        // The inclusive walk of the N-level hierarchy: each level is only
        // consulted — and updated — when the previous one misses.
        for level in &mut self.levels {
            let block = level.block_of_address(address);
            if level.access(block, a.kind, a.id, iv) {
                break;
            }
        }
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
        descendant_ids: &[usize],
        depth: usize,
        normalizers: &[i64],
    ) -> CanonicalKey {
        self.exact_key_builds += 1;
        CanonicalKey::of_levels(&self.levels, descendant_ids, depth, normalizers)
    }

    fn simulate_loop(&mut self, l: &CompiledLoop, nodes: &[&AccessNode]) {
        let Some(entry) = l.entry(self.scratch.iv()) else {
            return;
        };
        let depth = l.depth;
        // Cheap gating: warping at this loop can only ever succeed if every
        // access below it shifts by the same amount per iteration (see
        // `plan_warp`), and it can only pay off if the loop has enough
        // iterations to amortise the cost of match attempts.  Decreasing
        // loops are simulated explicitly: warp matching assumes increasing
        // iterators (the match map stores the *earlier* state), and
        // extending it to negative periods is an open ROADMAP item.
        let warpable = l.stride > 0
            && entry.trip_count() >= self.options.min_trip_count
            && l.uniform_coefficient().is_some();
        let mut fruitless = self.fruitless[l.index];
        // Donor hints demote the eager phase on depths a similar run
        // already probed exhaustively without a single warp; a depth the
        // donor saw warp (or never saw at all) keeps the cold schedule.
        let eager = match &self.hints {
            Some(hints) => !hints.is_barren(depth) || hints.is_warped(depth),
            None => true,
        };
        let mut map: HashMap<u64, MatchEntry> = HashMap::new();
        let mut iteration_index: u64 = 0;
        let mut v = entry.first;
        l.enter(&mut self.scratch, v);
        loop {
            if warpable
                && fruitless < self.options.max_fruitless_attempts
                && self.should_attempt(iteration_index, eager)
            {
                if let Some(jump) =
                    self.attempt_match(l, nodes, v, entry.last, &mut map, &mut fruitless)
                {
                    // A plan never jumps past the entry's last value.
                    debug_assert!(v + jump <= entry.last);
                    l.advance(&mut self.scratch, jump);
                    v += jump;
                    fruitless = 0;
                    iteration_index += (jump / l.stride) as u64;
                    // Do not consume this iteration: the landed-on
                    // iteration is simulated (or warped again).
                    continue;
                }
            }
            if entry.dense || l.contains(self.scratch.iv()) {
                for child in l.children() {
                    self.simulate_node(child, nodes);
                }
            }
            let Some(next) = entry.next(v) else {
                break;
            };
            l.advance(&mut self.scratch, l.stride);
            v = next;
            iteration_index += 1;
        }
        l.leave(&mut self.scratch);
        if warpable {
            if fruitless >= self.options.max_fruitless_attempts {
                self.exhausted_depths.insert(depth);
            }
            self.fruitless[l.index] = fruitless;
        }
    }

    /// One two-phase match attempt at iterator value `v1`.  Returns the
    /// number of iterator units warped across on success (the caller
    /// advances the loop), `None` otherwise.
    fn attempt_match(
        &mut self,
        l: &CompiledLoop,
        nodes: &[&AccessNode],
        v1: i64,
        v_last: i64,
        map: &mut HashMap<u64, MatchEntry>,
        fruitless: &mut u64,
    ) -> Option<i64> {
        let depth = l.depth;
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
                    let key = self.build_key(l.accesses(), depth, &normalizers);
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
            .unwrap_or_else(|| self.build_key(l.accesses(), depth, &normalizers));
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
        let byte_shift_per_period = l
            .uniform_coefficient()
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
        let descendants: Vec<&AccessNode> = l.accesses().iter().map(|&id| nodes[id]).collect();
        let plan = plan_warp(
            &descendants,
            l.accesses(),
            &self.levels,
            &modes,
            depth,
            &self.scratch.iv()[..depth - 1],
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
        // Advance the symbolic cache state (Equation 18), one rotating
        // level after another.  Frozen levels are skipped wholesale: their state — labels, epoch, MRU anchor —
        // stays exactly where the warm-up left it, which is also what
        // explicit simulation of the warped window would have produced (the
        // window never touches them).
        let total_shift = plan.byte_shift_per_chunk * plan.chunks;
        let address_of = |id: usize, iv: &[i64]| nodes[id].address.eval(iv);
        for (level, _) in self
            .levels
            .iter_mut()
            .zip(&modes)
            .filter(|(_, mode)| **mode == LevelWarpMode::Shifted)
        {
            level.apply_warp(
                address_of,
                l.accesses(),
                depth,
                period,
                plan.chunks,
                total_shift,
            );
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

#[cfg(test)]
mod tests {
    use super::*;
    use cache_model::{CacheConfig, ReplacementPolicy};
    use scop::parse_scop;
    use simulate::simulate_memory;

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
        let config =
            MemoryConfig::from(CacheConfig::fully_associative(2, 8, ReplacementPolicy::Lru));
        let reference = simulate_memory(&scop, &config);
        let outcome = WarpingSimulator::new(config).run(&scop);
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
        let config = MemoryConfig::from(CacheConfig::new(4 * 1024, 8, 64, ReplacementPolicy::Plru));
        let reference = simulate_memory(&scop, &config);
        let outcome = WarpingSimulator::new(config).run(&scop);
        assert_eq!(outcome.result, reference);
        assert!(outcome.warps >= 1);
    }

    #[test]
    fn warping_is_exact_for_all_policies() {
        let scop = stencil(3000);
        for policy in ReplacementPolicy::ALL {
            let config = MemoryConfig::from(CacheConfig::new(2 * 1024, 4, 64, policy));
            let reference = simulate_memory(&scop, &config);
            let outcome = WarpingSimulator::new(config).run(&scop);
            assert_eq!(outcome.result, reference, "{policy}");
        }
    }

    #[test]
    fn warping_is_exact_on_a_two_level_hierarchy() {
        let scop = stencil(3000);
        let config = MemoryConfig::new(vec![
            CacheConfig::new(1024, 4, 64, ReplacementPolicy::Lru),
            CacheConfig::new(8 * 1024, 8, 64, ReplacementPolicy::Lru),
        ])
        .unwrap();
        let reference = simulate_memory(&scop, &config);
        let outcome = WarpingSimulator::new(config).run(&scop);
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
        let config = MemoryConfig::from(CacheConfig::new(2 * 1024, 4, 64, ReplacementPolicy::Lru));
        let reference = simulate_memory(&scop, &config);
        let outcome = WarpingSimulator::new(config).run(&scop);
        assert_eq!(outcome.result, reference);
    }

    #[test]
    fn guarded_kernel_is_exact() {
        let scop = parse_scop(
            "double A[3000]; double B[3000];\n\
             for (i = 1; i < 2999; i++) if (i < 1500) B[i-1] = A[i-1] + A[i];",
        )
        .unwrap();
        let config = MemoryConfig::from(CacheConfig::new(1024, 4, 64, ReplacementPolicy::Lru));
        let reference = simulate_memory(&scop, &config);
        let outcome = WarpingSimulator::new(config).run(&scop);
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
        let config = MemoryConfig::from(CacheConfig::new(2 * 1024, 8, 64, ReplacementPolicy::Plru));
        let reference = simulate_memory(&scop, &config);
        let outcome = WarpingSimulator::new(config).run(&scop);
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
        let _ = WarpingSimulator::new(MemoryConfig::from(config)).with_options(WarpingOptions {
            backoff_interval: 0,
            ..WarpingOptions::default()
        });
    }

    #[test]
    fn three_level_memory_is_exact() {
        let scop = stencil(3000);
        let memory = MemoryConfig::new(vec![
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
            let config = MemoryConfig::from(CacheConfig::new(2 * 1024, 4, 64, policy));
            let reference = simulate_memory(&scop, &config);
            let outcome = WarpingSimulator::new(config).run(&scop);
            assert_eq!(outcome.result, reference, "{policy}");
        }
        let config = CacheConfig::new(2 * 1024, 4, 64, ReplacementPolicy::Lru);
        let outcome = WarpingSimulator::new(MemoryConfig::from(config)).run(&scop);
        assert!(outcome.warps >= 1, "the strided stencil must warp");
    }

    #[test]
    fn strided_loop_on_a_hierarchy_is_exact() {
        let scop = parse_scop(
            "double A[6000];\n\
             for (i = 0; i < 6000; i += 3) A[i] = A[i];",
        )
        .unwrap();
        let memory = MemoryConfig::new(vec![
            CacheConfig::new(1024, 4, 64, ReplacementPolicy::Plru),
            CacheConfig::new(8 * 1024, 8, 64, ReplacementPolicy::Plru),
        ])
        .unwrap();
        let reference = simulate::simulate_memory(&scop, &memory);
        let outcome = WarpingSimulator::new(memory).run(&scop);
        assert_eq!(outcome.result, reference);
    }

    #[test]
    fn small_working_sets_do_not_warp_incorrectly() {
        // jacobi-1d-like situation: the working set fits in the cache, so
        // warping opportunities are limited but correctness must hold.
        let scop = stencil(64);
        let config =
            MemoryConfig::from(CacheConfig::new(32 * 1024, 8, 64, ReplacementPolicy::Plru));
        let reference = simulate_memory(&scop, &config);
        let outcome = WarpingSimulator::new(config).run(&scop);
        assert_eq!(outcome.result, reference);
    }

    #[test]
    fn fingerprint_filter_matches_exhaustive_matching() {
        // The two pipelines must produce identical simulation results; the
        // filtered one must build far fewer exact keys.
        let scop = stencil(4000);
        let memory = MemoryConfig::new(vec![
            CacheConfig::new(1024, 4, 64, ReplacementPolicy::Lru),
            CacheConfig::new(8 * 1024, 8, 64, ReplacementPolicy::Lru),
        ])
        .unwrap();
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
    fn donor_hints_keep_counts_bit_identical() {
        // The donor run exports its warp-plan facts; a hinted rerun of a
        // *different* (neighbouring) instance must produce exactly the
        // counts a cold run produces — hints only reschedule attempts.
        let memory = MemoryConfig::new(vec![
            CacheConfig::new(1024, 4, 64, ReplacementPolicy::Lru),
            CacheConfig::new(8 * 1024, 8, 64, ReplacementPolicy::Lru),
        ])
        .unwrap();
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
        let tiny = MemoryConfig::from(CacheConfig::with_sets(2, 2, 64, ReplacementPolicy::Lru));
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
        let outcome = WarpingSimulator::new(MemoryConfig::from(config)).run(&scop);
        assert!(outcome.match_attempts >= outcome.fingerprint_hits);
        assert!(outcome.match_attempts >= outcome.exact_key_builds);
        assert!(outcome.fingerprint_hits >= outcome.warps);
        assert!(outcome.warps >= 1);
    }
}
