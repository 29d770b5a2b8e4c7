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
//! The match map is keyed by the fingerprint *and the line phase* of the
//! attempt's iteration, `c · v mod L` for the loop's uniform coefficient
//! `c` and line size `L` (see [`plan_warp`]'s uniform-shift condition).
//! The fingerprints drop the warped-dimension value by design, so without
//! the phase, states a fraction of a line apart would share a slot: they
//! would build keys that can never warp (a warp needs a whole number of
//! lines per period) and re-anchor each other's slots.  Soundness is
//! untouched, as a warp still needs exact key equality, and no warp is
//! lost: the plan rejects every pair of different phases.
//!
//! # The match schedule
//!
//! Soundness never depends on when matches are attempted: a warp needs an
//! exact key match whatever the schedule.  The schedule only trades the
//! cost of attempts against the chance of finding a period, and it is one
//! set of constants:
//!
//! * **Eager attempts (32).**  Each loop execution attempts a match on its
//!   first 32 iterations, so periods of up to 32 iterations — a few cache
//!   lines of a unit-stride stencil — are found on the shortest path.
//! * **Backoff (16).**  After the eager phase, attempts happen every 16th
//!   iteration.  Longer periods are still found (as multiples of 16),
//!   while a loop that never warps pays for 1 attempt in 16 iterations.
//! * **Map cap (4,096).**  At most 4,096 states are remembered per loop
//!   execution, which bounds the memory of a loop whose states never
//!   recur; a state that cannot be remembered counts as fruitless.
//! * **Minimum trip count (24).**  Loop entries with fewer iterations are
//!   walked without attempts: a warp could skip too little to repay the
//!   fingerprints and keys of the attempts before it.
//! * **Fruitless budget (512).**  A loop node stops attempting after 512
//!   attempts without a warp, summed over its executions.  An attempt that
//!   built an exact key or could not remember its state counts at once.  An
//!   attempt the fingerprint dismissed (its state was remembered) counts
//!   when its loop entry ends: within one entry such attempts are what
//!   warm-up is made of — a stream on a large cache may need over a
//!   thousand of them before its states recur — and the map cap already
//!   bounds them, while a loop whose many short entries never warp (the
//!   inner loops of gemm, syrk or a stencil) still stops after 512.  A warp
//!   resets the count, and the entry's uncharged attempts with it.
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
//! A loop entry that can attempt a match steps one iteration at a time, so
//! its attempts see every iteration.  Every other entry of an innermost
//! loop whose body is all accesses — one that cannot warp (decreasing, too
//! short, or without a uniform coefficient) or whose fruitless budget is
//! spent — replays as run groups ([`CompiledLoop::for_each_group`],
//! [`SymLevel::access_group`]): each round labels its L1 lines with one
//! fresh stamp of the round's iteration vector, and the rounds of a
//! same-line stretch after an all-L1-hit round are counted, the last one
//! included.  The settled round's stamp is then rewritten to the last
//! round's iterator, which leaves the state bit-identical to walking every
//! round.  Attempts fire only between the iterations of the attempting
//! loop, and such a body holds no loop, so the grouped replay moves no
//! attempt, fingerprint, key or warp.  Both paths walk the hierarchy
//! through one inclusive walk.
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
use crate::plan::{line_phase, plan_warp, LevelWarpMode};
use crate::symstate::SymLevel;
use cache_model::{stretch_end, AccessKind, LevelStats, MemoryConfig};
use scop::{
    compile, AccessNode, CompiledAccess, CompiledLoop, CompiledNode, LoopEntry, RunGroup, Scop,
    WalkScratch,
};
use simulate::SimulationResult;
use std::collections::HashMap;
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
    /// Number of exact [`CanonicalKey`] constructions: one per fingerprint
    /// hit, plus one per attempt whose warped dimension is beyond the
    /// fingerprints' tracked range (see [`MAX_TRACKED_DIMS`]).
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

/// When to attempt a match, how many states to remember and when to give
/// up (see the module documentation for the reasons behind each value).
struct Schedule {
    /// Attempts on each loop execution before the backoff starts.
    eager_attempts: u64,
    /// Iterations between attempts after the eager phase.
    backoff_interval: u64,
    /// States remembered per loop execution.
    max_map_entries: usize,
    /// Loop entries with fewer iterations never attempt a match.
    min_trip_count: i64,
    /// Attempts without a warp after which a loop node stops attempting
    /// (dismissed ones are charged when their loop entry ends).
    max_fruitless_attempts: u64,
}

/// The one match schedule.
const SCHEDULE: Schedule = Schedule {
    eager_attempts: 32,
    backoff_interval: 16,
    max_map_entries: 4096,
    min_trip_count: 24,
    max_fruitless_attempts: 512,
};

/// The differential oracle's schedule: attempt on every iteration of every
/// loop, remember up to 65,536 states and never give up, maximising the
/// chance of exposing an unsound warp.
#[cfg(test)]
const EAGER: Schedule = Schedule {
    eager_attempts: u64::MAX,
    backoff_interval: 1,
    max_map_entries: 1 << 16,
    min_trip_count: 0,
    max_fruitless_attempts: u64::MAX,
};

/// A slot of the per-loop match map: the line phase of the state's
/// iteration and its rolling fingerprint (or, at untracked depths, the
/// hash of its exact key).
type Slot = (u64, u64);

/// How a match attempt ended, and so how it is charged to the fruitless
/// budget.
enum Attempt {
    /// Warped across this many iterator units; the caller advances the
    /// loop, and the budget starts afresh.
    Warped(i64),
    /// The fingerprint dismissed the state, which was remembered: charged
    /// when the loop entry ends.
    Dismissed,
    /// Built an exact key without warping, or could not remember the
    /// state: charged at once.
    Costly,
}

/// Per-entry bookkeeping of the per-loop match map of Algorithm 2, keyed by
/// [`Slot`].
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
    /// The iteration vector of a group-replayed loop entry.
    group_iv: Vec<i64>,
    /// Per-stream line crossings of the group being replayed.
    crossings: Vec<u64>,
    /// Match attempts that did not result in a warp during the current
    /// run, per loop ([`CompiledLoop::index`]).
    fruitless: Vec<u64>,
    /// Skips the fingerprint phase on every attempt: the exhaustive
    /// key-per-attempt pipeline, kept as the unit oracle of the filter.
    #[cfg(test)]
    exhaustive: bool,
    /// Runs the [`EAGER`] schedule instead of [`SCHEDULE`].
    #[cfg(test)]
    eager: bool,
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
            accesses: 0,
            warped_accesses: 0,
            warps: 0,
            match_attempts: 0,
            fingerprint_hits: 0,
            exact_key_builds: 0,
            stale_label_renorms: 0,
            warp_apply_ns: 0,
            scratch: WalkScratch::default(),
            group_iv: Vec::new(),
            crossings: Vec::new(),
            fruitless: Vec::new(),
            #[cfg(test)]
            exhaustive: false,
            #[cfg(test)]
            eager: false,
        }
    }

    /// Switches to the [`EAGER`] schedule of the differential oracle.
    #[cfg(test)]
    pub(crate) fn eager(mut self) -> Self {
        self.eager = true;
        self
    }

    fn schedule(&self) -> &'static Schedule {
        #[cfg(test)]
        if self.eager {
            return &EAGER;
        }
        &SCHEDULE
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
        walk(&mut self.levels, address, a.kind, a.id, iv);
    }

    /// Replays a loop entry as run groups ([`SymLevel::access_group`]).
    /// Returns `false`, replaying nothing, when the loop has no group body.
    fn replay_groups(&mut self, l: &CompiledLoop, entry: &LoopEntry) -> bool {
        self.group_iv.clear();
        self.group_iv.extend_from_slice(self.scratch.iv());
        self.group_iv.push(entry.first);
        let (levels, iv, crossings) = (&mut self.levels, &mut self.group_iv, &mut self.crossings);
        let covered = l.for_each_group(entry, &mut self.scratch, |group| {
            SymLevel::access_group(levels, group, entry.stride, iv, crossings);
        });
        covered.inspect(|n| self.accesses += n).is_some()
    }

    /// Combines the per-level rolling fingerprints for a warp attempt at
    /// the given depth.  `None` when the warped dimension is beyond the
    /// tracked range, in which case the caller falls back to exhaustive
    /// exact-key matching.
    fn combined_fingerprint(&mut self, warp_depth: usize) -> Option<u64> {
        let dim = warp_depth - 1;
        #[cfg(test)]
        if self.exhaustive {
            return None;
        }
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
        // Cheap gating: warping at this loop can only ever succeed if every
        // access below it shifts by the same amount per iteration (see
        // `plan_warp`), and it can only pay off if the loop has enough
        // iterations to amortise the cost of match attempts.  Decreasing
        // loops are simulated explicitly: warp matching assumes increasing
        // iterators (the match map stores the *earlier* state), and
        // extending it to negative periods is an open ROADMAP item.
        let warpable = l.stride > 0
            && entry.trip_count() >= self.schedule().min_trip_count
            && l.uniform_coefficient().is_some();
        let mut fruitless = self.fruitless[l.index];
        // Dismissed attempts of this entry, charged to `fruitless` when the
        // entry ends (see "The match schedule").
        let mut dismissed = 0;
        // Attempts fire only here, between this loop's own iterations, and
        // a group body holds no loops: an entry that cannot attempt replays
        // as run groups without moving any attempt, key or warp.
        if !(warpable && fruitless < self.schedule().max_fruitless_attempts)
            && self.replay_groups(l, &entry)
        {
            return;
        }
        let mut map: HashMap<Slot, MatchEntry> = HashMap::new();
        let mut iteration_index: u64 = 0;
        let mut v = entry.first;
        l.enter(&mut self.scratch, v);
        loop {
            if warpable
                && fruitless < self.schedule().max_fruitless_attempts
                && self.should_attempt(iteration_index)
            {
                match self.attempt_match(l, nodes, v, entry.last, &mut map) {
                    Attempt::Warped(jump) => {
                        // A plan never jumps past the entry's last value.
                        debug_assert!(v + jump <= entry.last);
                        l.advance(&mut self.scratch, jump);
                        v += jump;
                        fruitless = 0;
                        dismissed = 0;
                        iteration_index += (jump / l.stride) as u64;
                        // Do not consume this iteration: the landed-on
                        // iteration is simulated (or warped again).
                        continue;
                    }
                    Attempt::Dismissed => dismissed += 1,
                    Attempt::Costly => fruitless += 1,
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
            self.fruitless[l.index] = fruitless + dismissed;
        }
    }

    /// One two-phase match attempt at iterator value `v1`: warps, or says
    /// how the attempt is charged to the fruitless budget.
    fn attempt_match(
        &mut self,
        l: &CompiledLoop,
        nodes: &[&AccessNode],
        v1: i64,
        v_last: i64,
        map: &mut HashMap<Slot, MatchEntry>,
    ) -> Attempt {
        let depth = l.depth;
        self.match_attempts += 1;
        let coefficient = l
            .uniform_coefficient()
            .expect("attempts are gated on a uniform coefficient");
        // Only states of the same line phase can warp against each other
        // (see `line_phase`), so the phase is part of the slot: states of
        // other phases neither build keys against this one nor re-anchor
        // its slot.
        let phase = line_phase(coefficient, v1, self.levels[0].config.line_size());
        // The per-level label normalisers of this attempt's key: the level
        // epochs (or the current iterator value, see `epoch_normalizers`).
        let normalizers = self.epoch_normalizers(depth, v1);
        // Phase 1: the cheap rolling fingerprint (when the warped dimension
        // is tracked); otherwise fall back to hashing the exact key, i.e.
        // the exhaustive pipeline.
        let (digest, mut current_key) = match self.combined_fingerprint(depth) {
            Some(fp) => (fp, None),
            None => {
                let key = self.build_key(l.accesses(), depth, &normalizers);
                let mut hasher = std::collections::hash_map::DefaultHasher::new();
                key.hash(&mut hasher);
                (hasher.finish(), Some(key))
            }
        };
        let slot = (phase, digest);
        let Some(entry) = map.get(&slot) else {
            if map.len() >= self.schedule().max_map_entries {
                // Pure overhead with no future benefit: the state cannot be
                // remembered, so this attempt can never enable a warp.
                return Attempt::Costly;
            }
            let attempt = if current_key.is_some() {
                Attempt::Costly
            } else {
                Attempt::Dismissed
            };
            map.insert(
                slot,
                MatchEntry {
                    v: v1,
                    counters: self.counters(),
                    epochs: normalizers,
                    key: current_key,
                },
            );
            return attempt;
        };
        if current_key.is_none() {
            self.fingerprint_hits += 1;
        }
        // Phase 2: the exact canonical key decides.  From here on the
        // attempt built a key, so unless it warps it is costly.
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
            return Attempt::Costly;
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
        let byte_shift_per_period = coefficient * period;
        let chunk = self.counters();
        let mut modes = Vec::with_capacity(self.levels.len());
        for (idx, (&now, &then)) in normalizers.iter().zip(&entry.epochs).enumerate() {
            let label_shift = now - then;
            if label_shift == period {
                modes.push(LevelWarpMode::Shifted);
            } else if label_shift == 0 {
                let chunk_traffic = chunk.level[idx].accesses - entry.counters.level[idx].accesses;
                if byte_shift_per_period != 0 && chunk_traffic != 0 {
                    return Attempt::Costly;
                }
                modes.push(LevelWarpMode::Frozen);
            } else {
                return Attempt::Costly;
            }
        }
        let Some(plan) = plan_warp(
            nodes,
            l.accesses(),
            &self.levels,
            &modes,
            depth,
            &self.scratch.iv()[..depth - 1],
            entry.v,
            v1,
            v_last,
        ) else {
            return Attempt::Costly;
        };
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
        self.warp_apply_ns += warp_start.elapsed().as_nanos() as u64;
        Attempt::Warped(plan.chunks * period)
    }

    fn should_attempt(&self, iteration_index: u64) -> bool {
        let schedule = self.schedule();
        iteration_index < schedule.eager_attempts
            || iteration_index.is_multiple_of(schedule.backoff_interval)
    }
}

/// The inclusive walk of the N-level hierarchy `levels` (L1 first): each
/// level is only consulted — and updated — when the previous one misses.
/// Returns whether the L1 hit.
#[inline]
fn walk(levels: &mut [SymLevel], address: u64, kind: AccessKind, node: usize, iv: &[i64]) -> bool {
    for (idx, level) in levels.iter_mut().enumerate() {
        let block = level.block_of_address(address);
        if level.access(block, kind, node, iv) {
            return idx == 0;
        }
    }
    false
}

/// [`walk`] labelling the L1 line with `l1_stamp`, a stamp of the L1's log
/// holding `iv`.
#[inline]
fn walk_stamped(
    levels: &mut [SymLevel],
    address: u64,
    kind: AccessKind,
    node: usize,
    l1_stamp: u32,
    iv: &[i64],
) -> bool {
    let (l1, outer) = levels.split_first_mut().expect("a hierarchy has an L1");
    let block = l1.block_of_address(address);
    if l1.access_stamped(block, kind, node, l1_stamp) {
        return true;
    }
    walk(outer, address, kind, node, iv);
    false
}

impl SymLevel {
    /// Replays a run group against the hierarchy `levels` (L1 first): the
    /// symbolic twin of `MultiLevelState::access_group`, bit-identical to
    /// walking every access of the group round by round.  `iv` is the
    /// iteration vector of the group's loop; its last entry is overwritten
    /// with each round's value `group.first + r·stride`, which labels the
    /// round's lines, and ends on the last round's value.  `crossings` is
    /// scratch space.  Returns the number of accesses recorded
    /// arithmetically instead of performed: every round of a stretch after
    /// its settled round, the stretch's last round included.
    ///
    /// Each round appends one fresh stamp of `iv` to the L1's log and
    /// labels every L1 line of the round with it, without comparing
    /// vectors; outer levels stamp as [`SymLevel::access`] does.
    ///
    /// A *stretch* is a maximal run of rounds in which no stream changes
    /// its line.  Once a round of a stretch is all L1 hits, every later
    /// round of the stretch hits the same ways in the same order and
    /// leaves the tags and policy bits as they are (the fixed point of the
    /// classic replay), so all of them are recorded as L1 hits and none is
    /// replayed.  They would write the same nodes to the same lines, the
    /// same `mru_set` and the same dirty rows as the settled round, and
    /// differ from it only in the iterator: the settled round's stamp,
    /// which no label or epoch outside the round holds, is rewritten in
    /// place to the last round's value, which leaves the labels and the
    /// L1 epoch as the last round would.  No compaction runs between the
    /// stamp's append and its rewrite.  Outer levels are not consulted by
    /// any round of the stretch.
    ///
    /// Each stream's next line crossing is kept across rounds
    /// ([`stretch_end`]), the rule of the classic replay.
    pub fn access_group(
        levels: &mut [SymLevel],
        group: &RunGroup,
        stride: i64,
        iv: &mut [i64],
        crossings: &mut Vec<u64>,
    ) -> u64 {
        let line = levels[0].config.line_size() as i64;
        let k = group.nodes.len();
        let dim = iv.len() - 1;
        crossings.clear();
        crossings.resize(k, 0);
        let mut counted = 0;
        let mut round = 0;
        while round < group.count {
            let r = round as i64;
            iv[dim] = group.first + r * stride;
            let stamp = levels[0].push_stamp(iv);
            let mut settled = true;
            for s in 0..k {
                let address = (group.bases[s] as i64 + r * group.strides[s]) as u64;
                settled &= walk_stamped(levels, address, group.kinds[s], group.nodes[s], stamp, iv);
            }
            if settled {
                // The stretch ends where the first stream leaves its line.
                let end = stretch_end(crossings, round, group.bases, group.strides, line);
                let last = end.min(group.count) - 1;
                if last > round {
                    let skipped = (last - round) * k as u64;
                    levels[0].stats.record_n(true, skipped);
                    counted += skipped;
                    iv[dim] = group.first + last as i64 * stride;
                    levels[0].restamp(stamp, dim, iv[dim]);
                    round = last;
                }
            }
            round += 1;
        }
        counted
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
        let filtered = WarpingSimulator::new(memory.clone()).run(&scop);
        let mut oracle = WarpingSimulator::new(memory);
        oracle.exhaustive = true;
        let exhaustive = oracle.run(&scop);
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
    fn untracked_depths_fall_back_to_exhaustive_matching() {
        // The fingerprints track the first MAX_TRACKED_DIMS dimensions; a
        // loop nested deeper matches on exact keys alone.  The outer loops
        // are too short to attempt, so every attempt is at depth 5.
        let scop = parse_scop(
            "double A[4000]; double B[4000];\n\
             for (a = 0; a < 2; a++)\n\
               for (b = 0; b < 2; b++)\n\
                 for (c = 0; c < 2; c++)\n\
                   for (d = 0; d < 2; d++)\n\
                     for (i = 1; i < 3999; i++) B[i-1] = A[i-1] + A[i];",
        )
        .unwrap();
        assert_eq!(
            MAX_TRACKED_DIMS, 4,
            "the nest must reach past the tracked range"
        );
        let config = MemoryConfig::from(CacheConfig::new(1024, 4, 64, ReplacementPolicy::Lru));
        let reference = simulate_memory(&scop, &config);
        let outcome = WarpingSimulator::new(config).run(&scop);
        assert_eq!(outcome.result, reference);
        assert!(outcome.warps >= 1, "the depth-5 loop must warp");
        assert_eq!(outcome.fingerprint_hits, 0);
        assert_eq!(
            outcome.exact_key_builds, outcome.match_attempts,
            "untracked depths build a key per attempt"
        );
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
