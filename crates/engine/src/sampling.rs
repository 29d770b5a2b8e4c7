//! Interval sampling with epoch-aware snapshots: the bounded-error fast
//! path for kernels warping cannot accelerate.
//!
//! Warping (Algorithm 2 of the paper) is exact and fast *when states
//! match*; the non-warpable tail still pays full per-access cost.  This
//! module trades exactness for a reported error bound: it simulates only
//! representative intervals of the outer iteration space and extrapolates
//! per-level hit/miss counts from them.
//!
//! # How a run is scheduled
//!
//! For every top-level loop the sampler
//!
//! 1. simulates an exact **prefix** (up to [`MAX_PREFIX`] outer
//!    iterations), recording each iteration's per-level hit/miss counts
//!    as a behaviour signature;
//! 2. detects the smallest **period** `p ≤` [`MAX_PERIOD`] over which the
//!    signature trace repeats; `p` outer iterations form one interval
//!    (fallback `p = 1` — a bad period only widens the bound, never
//!    corrupts the measured counts);
//! 3. keeps walking intervals exactly until per-level occupancy has been
//!    flat across [`STABLE_STREAK`] consecutive checkpoints — cold fill
//!    and capacity transitions are simulated, never extrapolated (a
//!    kernel that never reaches steady state degrades to exact
//!    simulation);
//! 4. walks the remaining intervals on a deterministic schedule: every
//!    `stride`-th interval (plus the first and the last) is **measured** —
//!    simulated with its counts trusted into the totals — and the gaps in
//!    between are **estimated** by the trapezoid of the two bracketing
//!    measurements.  The ragged tail that fills no whole interval is
//!    simulated exactly.
//!
//! After each measured interval the concrete cache state is digested with
//! the warping crate's shift- and rotation-invariant
//! [`concrete_fingerprint`] — the same digest algebra that filters warp
//! matches.  Two measurements with equal fingerprints bracket a
//! steady-state gap (the working set merely moved); unequal fingerprints
//! mean the gap crossed a regime change (e.g. a level's occupancy stopped
//! growing), and its error-bound contribution is widened accordingly.
//!
//! # Epoch-aware warm-up
//!
//! Skipping intervals leaves the cache state behind reality, so each
//! resumption re-simulates a short warm-up before trusting counts again.
//! How much warm-up is needed depends on how much of the hierarchy is
//! *live*: before each resumption the sampler reads every level's epoch
//! (the stamp of its last payload write, maintained by
//! [`MultiLevelState::access_stamped`]) and counts the levels whose epoch
//! reaches back into the last measured interval.
//! Levels untouched since before it are frozen — the relative-label
//! argument of the warping pipeline says carrying them forward is safe —
//! so the warm-up width is `warmup × live_levels`, clamped to the gap:
//! an L1-resident kernel re-converges after `warmup` intervals while a
//! hierarchy-streaming one gets proportionally more.  Warm-up intervals
//! are simulated for their *state* only: their counts are deliberately
//! discarded and replaced by the trapezoid estimate, so cold-state bias
//! ends up inside the reported bound instead of inside the totals.
//!
//! # The error bound
//!
//! Per level, each estimated gap of `g` intervals bracketed by measured
//! per-interval miss counts `m₀`, `m₁` contributes
//! `⌈g·|m₀ − m₁|/2⌉` (the trapezoid can be off by at most half the
//! bracket spread per interval if misses vary monotonically), plus a
//! jitter term `g·J` where `J` is the largest miss-count difference
//! between any *adjacent* measured pair (non-monotone variation).
//!
//! Spread and jitter only see variation that *shows up in measurements* —
//! warm-started measurement can also be systematically wrong in ways
//! every measured interval agrees on (warm-up absorbing a sliding
//! kernel's leading-edge compulsory misses is the canonical case: each
//! measurement then reports near-zero misses, consistently, while the
//! skipped gaps really do miss).  The **audit** closes that blind spot:
//! the first skip region is simulated twice — a *shadow* pass replays the
//! skip/warm-up/measure/trapezoid cadence on a rewound state to
//! reconstruct what sampling would have reported there, and a *truth*
//! pass simulates it contiguously with its counts trusted.  The signed
//! per-interval difference recenters the rest of the extrapolation, and
//! its magnitude is added to the bound, scaled by the intervals it
//! covers.
//!
//! For a kernel whose cache behaviour really is `p`-periodic every
//! measured interval agrees, shadow and truth coincide, all three terms
//! vanish, and the extrapolation is exact — which is what the accuracy
//! suite asserts.  A `rate` of `1.0` bypasses sampling entirely and
//! reproduces the classic backend bit-for-bit.

use crate::report::ApproxStats;
use cache_model::{LevelStats, MemoryConfig, MultiLevelState};
use scop::{compile, for_each_group_at, CompiledLoop, CompiledNode, Scop, WalkScratch};
use simulate::{simulate, MultiLevelSystem, SimulationResult};
use warping::fingerprint::concrete_fingerprint;

/// One million: the denominator of [`SamplingOptions::rate_ppm`].
pub const PPM: u32 = 1_000_000;

/// Outer iterations simulated exactly (and fingerprinted) before sampling
/// starts, per loop.
const MAX_PREFIX: usize = 32;

/// Largest outer-loop period the boundary detector considers.
const MAX_PERIOD: usize = 8;

/// Below this many whole intervals a loop is simulated exactly — the
/// bookkeeping would outweigh the savings.
const MIN_INTERVALS: usize = 4;

/// Consecutive flat occupancy checkpoints (taken every `stride`
/// intervals) required before the sampler starts skipping: while any
/// level is still filling, the transitions fills cause — first
/// evictions, a level saturating — must be simulated, not extrapolated.
const STABLE_STREAK: u32 = 2;

/// Tuning knobs of the sampling backend.
///
/// The fields are integers (not `f64`) so that
/// [`Backend`](crate::Backend) stays `Copy + Eq` and requests remain
/// hashable for the serving layer's content-addressed report cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SamplingOptions {
    /// Target share of dynamic accesses to simulate, in parts per million
    /// of the total.  Valid range `(0, 1_000_000]`; `1_000_000` disables
    /// sampling and reproduces the classic backend bit-for-bit.
    pub rate_ppm: u32,
    /// Warm-up intervals re-simulated (state only, counts discarded) per
    /// *live* cache level before each measured interval.  `0` trusts
    /// carried state unconditionally — cheapest, widest cold-state bias.
    pub warmup: u32,
    /// Target per-level miss-count error bound; `0` means no target.  A
    /// positive target makes the engine pick `rate_ppm` adaptively (from a
    /// calibration prior when one is available), re-running at a boosted
    /// rate at most once when the reported bound overshoots.  The reported
    /// bound is always honest either way; the target steers effort, it
    /// does not clip the report.
    pub max_error: u64,
}

impl SamplingOptions {
    /// The defaults: simulate ~10% of the accesses, one warm-up interval
    /// per live level, no error-bound target.
    pub const DEFAULT: SamplingOptions = SamplingOptions {
        rate_ppm: 100_000,
        warmup: 1,
        max_error: 0,
    };

    /// Options targeting the given sampling rate (a fraction in
    /// `(0, 1]`), with the default warm-up.
    ///
    /// # Errors
    ///
    /// Returns a message for rates outside `(0, 1]` (NaN included).
    pub fn from_rate(rate: f64) -> Result<Self, String> {
        if !(rate > 0.0 && rate <= 1.0) {
            return Err(format!(
                "sample rate must be in (0, 1], got {rate}; \
                 1.0 means exact simulation, smaller is faster"
            ));
        }
        Ok(SamplingOptions {
            rate_ppm: ((rate * f64::from(PPM)).round() as u32).clamp(1, PPM),
            ..SamplingOptions::DEFAULT
        })
    }

    /// The target rate as a fraction in `(0, 1]`.
    pub fn rate(&self) -> f64 {
        f64::from(self.rate_ppm) / f64::from(PPM)
    }

    /// These options with a different warm-up width.
    pub fn with_warmup(mut self, warmup: u32) -> Self {
        self.warmup = warmup;
        self
    }

    /// These options with a per-level miss-count error-bound target
    /// (`0` disables adaptive rate selection).
    pub fn with_max_error(mut self, max_error: u64) -> Self {
        self.max_error = max_error;
        self
    }

    /// Checks the options for validity.
    ///
    /// # Errors
    ///
    /// Returns a message when `rate_ppm` is outside `(0, 1_000_000]`.
    pub fn validate(&self) -> Result<(), String> {
        if self.rate_ppm == 0 || self.rate_ppm > PPM {
            return Err(format!(
                "sampling rate_ppm must be in (0, {PPM}], got {}",
                self.rate_ppm
            ));
        }
        Ok(())
    }
}

impl Default for SamplingOptions {
    fn default() -> Self {
        SamplingOptions::DEFAULT
    }
}

/// What one calibrated sampling run learned about a kernel family's
/// behaviour — the facts a *neighbouring* instance (same family, same
/// hierarchy and policy, nearby bindings) can seed its schedule from
/// instead of re-deriving them with the exact prefix, the stride-spaced
/// stabilisation scan and the shadow/truth audit.
///
/// Every seeded quantity is validated against the new instance before it
/// is trusted (period by a short exact trace, stabilisation by flat
/// occupancy checkpoints, the audit by a measured spot check); any
/// mismatch falls back to the full cold path, so a stale or foreign prior
/// costs time, never soundness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Calibration {
    /// Detected behaviour period, in outer iterations.
    pub period: usize,
    /// Leading prefix iterations whose behaviour signature had not yet
    /// turned periodic on the donor (cold-start fills live here).  A
    /// donee's shortened prefix must reach past this depth, or its
    /// validation window would sit inside the fill and reject every
    /// period.
    pub prefix_settle: usize,
    /// Intervals simulated exactly before per-level occupancy flattened
    /// (the growth phase only, excluding flat confirmation checkpoints).
    pub stable_depth: usize,
    /// Whole intervals the calibrated loop spanned.
    pub intervals: u64,
    /// Per-level `(accesses, misses)` of the first steady measured
    /// interval — the unit other quantities are scaled by.
    pub interval_stats: Vec<(u64, u64)>,
    /// Per-level largest miss-count difference between adjacent measured
    /// intervals.
    pub jitter: Vec<u64>,
    /// Per-level signed `(accesses, misses)` audit discrepancy summed over
    /// [`audit_units`](Calibration::audit_units) intervals, in the units
    /// of [`interval_stats`](Calibration::interval_stats).
    pub bias: Vec<(i64, i64)>,
    /// Intervals the audit covered; `0` when no audit ever ran along the
    /// donor chain.
    pub audit_units: u64,
}

/// How a sampling run interacted with its calibration prior, plus the
/// calibration it measured for future donees.
#[derive(Clone, Debug, Default)]
pub struct CalibrationOutcome {
    /// The calibration this run measured (from its largest sampled loop),
    /// ready to donate; `None` when no loop was actually sampled.
    pub measured: Option<Calibration>,
    /// Whether any seeded quantity failed validation and fell back to the
    /// full cold path (the run is still sound — just slower).
    pub fallback: bool,
}

/// Runs the sampling backend: simulates representative intervals and
/// extrapolates the rest, optionally seeding the schedule from a
/// calibration prior donated by a neighbouring family instance; returns
/// what this run measured alongside the report.  `options` must already
/// be validated.
pub(crate) fn run_sampled_with(
    scop: &Scop,
    memory: &MemoryConfig,
    options: &SamplingOptions,
    prior: Option<&Calibration>,
) -> (SimulationResult, ApproxStats, CalibrationOutcome) {
    let depth = memory.depth();
    if options.rate_ppm >= PPM {
        // Full rate: run the classic path verbatim so the counts are
        // bit-identical by construction, not merely by argument.
        let result = simulate(scop, &mut MultiLevelSystem::new(memory.clone()));
        return (
            result,
            ApproxStats::exact(depth),
            CalibrationOutcome::default(),
        );
    }
    // The exact and measured intervals replay the compiled run stream
    // (batched same-line updates).
    let compiled = compile(scop);
    let scratch = compiled.new_scratch();
    let mut sampler = Sampler {
        config: memory,
        options: *options,
        // A prior is only usable when it describes the same hierarchy
        // depth and a representable period; anything else is ignored
        // outright rather than half-trusted.
        prior: prior.filter(|c| {
            c.interval_stats.len() == depth
                && c.jitter.len() == depth
                && c.bias.len() == depth
                && c.period >= 1
                && c.period <= MAX_PERIOD
        }),
        state: MultiLevelState::new(memory),
        totals: vec![LevelStats::default(); depth],
        bounds: vec![0; depth],
        clock: 0,
        simulated: 0,
        intervals: 0,
        measured_intervals: 0,
        estimated_intervals: 0,
        period: 0,
        fallback: false,
        measured_cal: None,
        scratch,
    };
    for root in compiled.roots() {
        match root {
            CompiledNode::Loop(l) => sampler.run_loop(l),
            CompiledNode::Access(_) => sampler.run_node_exact(root),
        }
    }
    sampler.finish()
}

struct Sampler<'a> {
    config: &'a MemoryConfig,
    options: SamplingOptions,
    /// Calibration prior from a neighbouring family instance, already
    /// depth-checked; `None` runs the cold path.
    prior: Option<&'a Calibration>,
    state: MultiLevelState,
    /// Extrapolated per-level totals (measured + estimated).
    totals: Vec<LevelStats>,
    /// Accumulated per-level miss-count error bounds.
    bounds: Vec<u64>,
    /// Monotonic outer-iteration stamp, shared across roots, fed to
    /// [`MultiLevelState::access_stamped`] as the epoch.
    clock: i64,
    /// Dynamic accesses actually walked (counted or warm-up).
    simulated: u64,
    intervals: u64,
    measured_intervals: u64,
    estimated_intervals: u64,
    period: u64,
    /// Whether any seeded quantity failed validation.
    fallback: bool,
    /// Calibration measured by the largest sampled loop so far.
    measured_cal: Option<Calibration>,
    /// Reusable compiled-walk scratch (iteration vector + per-slot base
    /// addresses), kept across intervals so resumptions allocate nothing.
    scratch: WalkScratch,
}

impl<'a> Sampler<'a> {
    fn depth(&self) -> usize {
        self.totals.len()
    }

    /// Levels whose last payload write reaches `horizon` or later — the
    /// re-convergence set of a resumption.  The epochs are read in place,
    /// so the per-gap check copies no state.
    fn live_levels(&self, horizon: i64) -> usize {
        self.state
            .levels()
            .iter()
            .filter(|lvl| lvl.epoch() >= horizon)
            .count()
    }

    /// Simulates a non-loop root exactly, counts trusted.
    fn run_node_exact(&mut self, node: &CompiledNode) {
        let stamp = self.clock;
        let config = self.config;
        let mut local = vec![LevelStats::default(); self.totals.len()];
        let state = &mut self.state;
        self.simulated += for_each_group_at(node, &[], &mut self.scratch, |g| {
            state.access_group_stamped(
                config, g.bases, g.strides, g.kinds, g.count, stamp, &mut local,
            );
        });
        merge(&mut self.totals, &local);
        self.clock += 1;
    }

    /// Simulates outer iterations `range` of the top-level loop `cl`
    /// (stamped with their absolute iteration numbers `base + idx`) and
    /// returns the local per-level counts.  When `counted`, they are also
    /// merged into the totals; a warm-up pass discards them.
    fn run_iters(
        &mut self,
        cl: &CompiledLoop,
        iters: &[i64],
        base: i64,
        range: std::ops::Range<usize>,
        counted: bool,
    ) -> Vec<LevelStats> {
        let mut local = vec![LevelStats::default(); self.totals.len()];
        let config = self.config;
        for idx in range {
            let stamp = base + idx as i64;
            let state = &mut self.state;
            let scratch = &mut self.scratch;
            let outer = std::slice::from_ref(&iters[idx]);
            for child in cl.children() {
                self.simulated += for_each_group_at(child, outer, scratch, |g| {
                    state.access_group_stamped(
                        config, g.bases, g.strides, g.kinds, g.count, stamp, &mut local,
                    );
                });
            }
        }
        if counted {
            merge(&mut self.totals, &local);
        }
        local
    }

    /// The measured-interval stride implied by the target rate: one
    /// interval out of every `stride` is measured, and each resumption
    /// additionally re-simulates warm-up intervals, so the schedule aims
    /// at a simulated share of roughly `(1 + warmup) / stride`.
    fn interval_stride(&self) -> usize {
        let budgeted = (u64::from(self.options.warmup) + 1) * u64::from(PPM);
        (budgeted.div_ceil(u64::from(self.options.rate_ppm)))
            .try_into()
            .unwrap_or(usize::MAX)
    }

    /// Simulates outer iterations `range` exactly (counts trusted) and
    /// appends each iteration's behaviour signature to `trace`.
    ///
    /// The period signature hashes each iteration's per-level counts, not
    /// the cache state: behaviour is periodic from the very first
    /// iteration (a streaming kernel misses every k-th iteration even
    /// while occupancy is still growing), whereas the state only becomes
    /// periodic once every level reaches steady state — far beyond any
    /// affordable prefix.  The state fingerprint instead guards the
    /// measured schedule.
    fn trace_prefix(
        &mut self,
        cl: &CompiledLoop,
        iters: &[i64],
        base: i64,
        range: std::ops::Range<usize>,
        trace: &mut Vec<u64>,
    ) {
        for idx in range {
            let local = self.run_iters(cl, iters, base, idx..idx + 1, true);
            let mut signature = 0xcbf2_9ce4_8422_2325u64;
            for stats in &local {
                signature = (signature ^ stats.misses).wrapping_mul(0x0000_0100_0000_01b3);
                signature = (signature ^ stats.accesses).wrapping_mul(0x0000_0100_0000_01b3);
            }
            trace.push(signature);
        }
    }

    /// Samples one top-level loop (or simulates it exactly when it is too
    /// small for sampling to pay off).
    fn run_loop(&mut self, cl: &CompiledLoop) {
        let iters = outer_iterations(cl);
        let total = iters.len();
        let base = self.clock;
        self.clock = base + total as i64;

        // Phase 1: exact prefix.  A calibration prior shortens it to just
        // enough iterations to *validate* the donor's period instead of
        // re-detecting one from scratch; a failed validation extends the
        // trace back to the full cold prefix and re-detects, so a foreign
        // prior degrades speed, never the counts.
        let full_prefix = total.min(MAX_PREFIX);
        let mut prefix = match self.prior {
            Some(c) => (c.prefix_settle + 2 * c.period + 2).max(4).min(full_prefix),
            None => full_prefix,
        };
        let mut trace = Vec::with_capacity(full_prefix);
        self.trace_prefix(cl, &iters, base, 0..prefix, &mut trace);
        let mut loop_seeded = false;
        // Validation skips the donor's settle depth: those iterations are
        // the cold-start fill, whose signatures are not periodic on any
        // instance, donor included.
        let p = match self.prior {
            Some(c) if validates_period(&trace[c.prefix_settle.min(trace.len())..], c.period) => {
                loop_seeded = true;
                c.period
            }
            Some(_) => {
                self.fallback = true;
                self.trace_prefix(cl, &iters, base, prefix..full_prefix, &mut trace);
                prefix = full_prefix;
                detect_period(&trace)
            }
            None => detect_period(&trace),
        };
        // The settle depth this run will donate: its own trace's cold
        // head, floored by the donor's so the depth never decays along a
        // donation chain (a validated short trace can understate it).
        let settle = match self.prior {
            Some(c) if loop_seeded => settle_of(&trace, p).max(c.prefix_settle),
            _ => settle_of(&trace, p),
        };
        let remaining = total - prefix;
        let n = remaining / p;
        let stride = self.interval_stride();
        if n < MIN_INTERVALS || stride <= 1 {
            self.run_iters(cl, &iters, base, prefix..total, true);
            return;
        }

        // Phase 2a: exact walk until occupancy saturates.  Cache
        // occupancy is monotone — lines are replaced, never vacated — and
        // the transitions the fill causes (first evictions, a level
        // saturating) are one-off behaviour a skipped gap would hide from
        // every bracketing measurement, so the walk stays exact while any
        // level is still growing.  Occupancy is scanned only every
        // `stride` intervals, keeping the check amortised against the
        // intervals walked; a kernel that never reaches steady state is
        // simply simulated exactly — slow but sound.
        let grow_range = |i: usize| (prefix + i * p)..(prefix + (i + 1) * p);
        let occupancy = |state: &MultiLevelState| -> Vec<u64> {
            state
                .levels()
                .iter()
                .map(|lvl| lvl.occupied_lines())
                .collect()
        };
        let mut stable = 0usize;
        let mut streak = 0u32;
        let mut occ_prev = occupancy(&self.state);
        // End of the last growth evidence, exported as the calibration's
        // stabilisation depth.
        let mut growth_end = 0usize;
        if loop_seeded {
            // Seeded stabilisation: the donor's depth bounds the fill, so
            // walk interval-by-interval — an occupancy scan is cheap next
            // to simulating an interval at these working-set sizes — and
            // stop at the first [`STABLE_STREAK`] flat intervals.  The
            // donor's depth is usually a loose stride-granular bound, so
            // the precise walk ends far earlier than `depth + 2`, and the
            // exact depth observed here is what this run donates onward.
            // The budget adds the prefix deficit (the donor measured its
            // depth after a full cold prefix; this run's is shorter, so
            // the same fill reaches deeper in interval terms).  Occupancy
            // still growing past the budget says the prior does not
            // describe this instance: fall back to the stride-spaced scan.
            let c = self.prior.expect("loop_seeded implies a usable prior");
            let deficit = (full_prefix - prefix) / p;
            let budget = (c.stable_depth + deficit + STABLE_STREAK as usize).min(n);
            while stable < budget && streak < STABLE_STREAK {
                self.run_iters(cl, &iters, base, grow_range(stable), true);
                stable += 1;
                let occ = occupancy(&self.state);
                if occ == occ_prev {
                    streak += 1;
                } else {
                    occ_prev = occ;
                    streak = 0;
                    growth_end = stable;
                }
            }
            if streak < STABLE_STREAK && stable < n {
                self.fallback = true;
            }
        }
        while stable < n && streak < STABLE_STREAK {
            let step = stride.min(n - stable);
            self.run_iters(
                cl,
                &iters,
                base,
                grow_range(stable).start..grow_range(stable + step - 1).end,
                true,
            );
            let occ = occupancy(&self.state);
            if occ == occ_prev {
                streak += 1;
            } else {
                streak = 0;
                growth_end = stable + step;
            }
            occ_prev = occ;
            stable += step;
        }
        let n_rest = n - stable;
        if n_rest < MIN_INTERVALS {
            self.run_iters(cl, &iters, base, (prefix + stable * p)..total, true);
            return;
        }
        self.period = self.period.max(p as u64);
        self.intervals += n as u64;
        self.measured_intervals += stable as u64;

        // Phase 2: measured/estimated schedule over the `n_rest` steady
        // intervals of `p` outer iterations each.  Local interval `i`
        // covers iteration indices
        // `prefix + (stable+i)*p .. prefix + (stable+i+1)*p`.
        let interval_range = |i: usize| grow_range(stable + i);
        let mut schedule: Vec<usize> = (0..n_rest).step_by(stride).collect();
        if *schedule.last().expect("n_rest >= MIN_INTERVALS") != n_rest - 1 {
            schedule.push(n_rest - 1);
        }

        let depth = self.depth();
        let mut measured: Vec<Vec<LevelStats>> = Vec::with_capacity(schedule.len());
        let mut gaps: Vec<usize> = Vec::with_capacity(schedule.len());
        let mut fingerprints: Vec<u64> = Vec::with_capacity(schedule.len());
        let mut prev_end = 0usize; // one past the last simulated interval
                                   // Start stamp of the last measured interval, in absolute outer
                                   // iterations (schedule indices below are relative to `stable`).
        let start_stamp = |i: usize| base + (prefix + (stable + i) * p) as i64;
        let mut horizon = start_stamp(0);
        // The audit (see the module docs): per-level signed
        // `(accesses, misses)` discrepancy between ground truth and a
        // shadow replay of the sampling cadence over the first skip
        // region, and the number of intervals that region spans.
        let mut bias = vec![(0i64, 0i64); depth];
        let mut audit_units = 0u64;
        let mut audit_end = 0usize; // first interval after the audited region
                                    // Audit demotion (seeded runs only): skip the shadow/truth double
                                    // simulation and validate the prior instead — the first post-skip
                                    // measurement must agree with the pre-skip one within the donor's
                                    // jitter.  A failed spot check re-arms the full audit, which then
                                    // fires at the next gap; a passed one adopts the donor's bias at
                                    // the end of the loop (recentring + widening, like a live audit).
        let mut demote = loop_seeded && streak >= STABLE_STREAK && !self.fallback;
        let mut donor_audited = false;
        let mut spot_checked = false;
        let mut si = 0usize;
        while si < schedule.len() {
            let j = schedule[si];
            let gap = j - prev_end;
            if gap > 0 && audit_units == 0 && !demote {
                // ---- Audit: calibrate the cold-state bias. ----
                // Warm-started measurement after a skip can be
                // systematically off in ways no spread or jitter term can
                // see (e.g. warm-up absorbing a sliding kernel's
                // leading-edge compulsory misses, so every measurement
                // agrees on counts that are all equally wrong).  The first
                // skip region — this gap, its measured interval, and the
                // following gap + interval when the schedule has one — is
                // therefore simulated twice: a *shadow* pass replays the
                // exact skip/warm-up/measure/trapezoid cadence on a
                // rewound state to reconstruct what sampling would have
                // reported, and a *truth* pass simulates the region
                // contiguously with its counts trusted into the totals.
                // The signed difference, per interval, is the bias the
                // rest of the schedule will repeat: it recenters the
                // remaining extrapolation and its magnitude widens the
                // bound.  For behaviour-periodic kernels shadow and truth
                // agree exactly, so the calibration costs nothing in
                // bound tightness.
                let last = (si + 1).min(schedule.len() - 1);
                let region_start = prev_end;
                let rewind = self.state.clone();
                let mut shadow = vec![LevelStats::default(); depth];
                let mut left = measured
                    .last()
                    .expect("the schedule starts at interval 0, so a gap has a left bracket")
                    .clone();
                let mut sprev_end = prev_end;
                let mut shorizon = horizon;
                for &sj in &schedule[si..=last] {
                    let sgap = sj - sprev_end;
                    if sgap > 0 {
                        let live = self.live_levels(shorizon);
                        let warmup = (self.options.warmup as usize * live).min(sgap);
                        for w in (sj - warmup)..sj {
                            self.run_iters(cl, &iters, base, interval_range(w), false);
                        }
                    }
                    shorizon = start_stamp(sj);
                    let probe = self.run_iters(cl, &iters, base, interval_range(sj), false);
                    let g = sgap as u64;
                    for (level, tally) in shadow.iter_mut().enumerate() {
                        let (b, a) = (&left[level], &probe[level]);
                        tally.accesses += g * (b.accesses + a.accesses) / 2 + a.accesses;
                        tally.misses += g * (b.misses + a.misses) / 2 + a.misses;
                    }
                    left = probe;
                    sprev_end = sj + 1;
                }
                self.state = rewind;
                let mut truth = vec![LevelStats::default(); depth];
                for &tj in &schedule[si..=last] {
                    let tgap = tj - prev_end;
                    if tgap > 0 {
                        let local = self.run_iters(
                            cl,
                            &iters,
                            base,
                            interval_range(prev_end).start..interval_range(tj).start,
                            true,
                        );
                        merge(&mut truth, &local);
                        self.measured_intervals += tgap as u64;
                    }
                    horizon = start_stamp(tj);
                    let stats = self.run_iters(cl, &iters, base, interval_range(tj), true);
                    fingerprints.push(concrete_fingerprint(self.state.levels()));
                    merge(&mut truth, &stats);
                    measured.push(stats);
                    gaps.push(0); // ground truth: nothing left to estimate
                    prev_end = tj + 1;
                }
                audit_units = (prev_end - region_start) as u64;
                audit_end = prev_end;
                for (level, (da, dm)) in bias.iter_mut().enumerate() {
                    *da = truth[level].accesses as i64 - shadow[level].accesses as i64;
                    *dm = truth[level].misses as i64 - shadow[level].misses as i64;
                }
                si = last + 1;
                continue;
            }
            if gap > 0 {
                // Epoch-aware warm-up: levels whose last payload write
                // reaches back into the previous measured interval are
                // live and need re-convergence; frozen levels are safe to
                // carry (so an all-stale hierarchy resumes for free).
                let live = self.live_levels(horizon);
                let warmup = (self.options.warmup as usize * live).min(gap);
                for w in (j - warmup)..j {
                    self.run_iters(cl, &iters, base, interval_range(w), false);
                }
            }
            horizon = start_stamp(j);
            let stats = self.run_iters(cl, &iters, base, interval_range(j), true);
            fingerprints.push(concrete_fingerprint(self.state.levels()));
            measured.push(stats);
            gaps.push(gap);
            prev_end = j + 1;
            if demote && gap > 0 && !spot_checked {
                // The demoted audit's validation pass: the first measured
                // interval after a skip must agree with the last pre-skip
                // measurement within the donor's observed jitter.  Drift
                // beyond it says the prior does not describe this
                // instance; re-arm the full audit (it fires at the next
                // gap) instead of trusting the donor's bias.
                spot_checked = true;
                let pre = &measured[measured.len() - 2];
                let post = &measured[measured.len() - 1];
                let c = self.prior.expect("demotion implies a usable prior");
                let agrees = (0..depth).all(|level| {
                    post[level].misses.abs_diff(pre[level].misses) <= c.jitter[level] + 1
                });
                if agrees {
                    donor_audited = true;
                } else {
                    demote = false;
                    self.fallback = true;
                }
            }
            si += 1;
        }
        self.measured_intervals += schedule.len() as u64;

        // Phase 3: the ragged tail that fills no whole interval.
        self.run_iters(cl, &iters, base, (prefix + n * p)..total, true);

        // Extrapolate the gaps from their bracketing measurements and
        // accumulate the error bound.
        let mut jitter = vec![0u64; depth];
        for pair in measured.windows(2) {
            for (level, j) in jitter.iter_mut().enumerate() {
                *j = (*j).max(pair[0][level].misses.abs_diff(pair[1][level].misses));
            }
        }
        let mut skipped_total = 0u64;
        for (pos, &gap) in gaps.iter().enumerate() {
            if gap == 0 {
                continue;
            }
            let g = gap as u64;
            skipped_total += g;
            self.estimated_intervals += g;
            // The gap before measured interval `pos` is bracketed by the
            // previous measurement (or, for a leading gap, the same one
            // twice — a flat extrapolation).
            let after = &measured[pos];
            let before = if pos > 0 { &measured[pos - 1] } else { after };
            // The shift-invariant state fingerprint tells a steady-state
            // gap (both ends digest identically: the working set merely
            // moved) from one that crossed a regime change — e.g. the
            // boundary where a level's occupancy stops growing.  Across a
            // regime change the trapezoid midpoint has no support, so the
            // full bracket spread enters the bound instead of half.
            let regime_change = pos > 0 && fingerprints[pos] != fingerprints[pos - 1];
            for level in 0..depth {
                let (b, a) = (&before[level], &after[level]);
                let est_accesses = g * (b.accesses + a.accesses) / 2;
                let est_misses = g * (b.misses + a.misses) / 2;
                self.totals[level].accesses += est_accesses;
                self.totals[level].misses += est_misses;
                self.totals[level].hits += est_accesses.saturating_sub(est_misses);
                let spread = g * b.misses.abs_diff(a.misses);
                self.bounds[level] += if regime_change {
                    spread
                } else {
                    spread.div_ceil(2)
                };
            }
        }
        for (bound, j) in self.bounds.iter_mut().zip(&jitter) {
            *bound += skipped_total * j;
        }

        // Apply the audit calibration: every interval after the audited
        // region follows the same skip/warm-up/measure cadence the shadow
        // replayed, so it repeats the same per-interval bias.  The signed
        // bias recenters the totals; its magnitude enters the bound (the
        // correction is itself an extrapolation).
        if audit_units > 0 && audit_end < n_rest {
            let scale = (n_rest - audit_end) as u64;
            for (level, &(da, dm)) in bias.iter().enumerate() {
                let shift_a = da * scale as i64 / audit_units as i64;
                let shift_m = dm * scale as i64 / audit_units as i64;
                let t = &mut self.totals[level];
                t.accesses = t.accesses.saturating_add_signed(shift_a);
                t.misses = t.misses.saturating_add_signed(shift_m).min(t.accesses);
                t.hits = t.accesses - t.misses;
                self.bounds[level] += (dm.unsigned_abs() * scale).div_ceil(audit_units);
            }
        } else if donor_audited {
            // Demoted audit: adopt the donor's per-interval bias, scaled
            // to this instance's interval size (the donor's units are its
            // own interval access counts).  The whole schedule follows the
            // cadence the donor audited, so the bias recenters all of
            // `n_rest` and its magnitude widens the bound the same way a
            // live audit's would.
            let c = self.prior.expect("a donor audit implies a usable prior");
            if c.audit_units > 0 {
                let scale = n_rest as u64;
                for (level, &(da, dm)) in c.bias.iter().enumerate() {
                    let (acc_donor, _) = c.interval_stats[level];
                    let acc_here = measured[0][level].accesses;
                    let den = c.audit_units as i128 * acc_donor.max(1) as i128;
                    let rescale = |d: i64| -> i64 {
                        (d as i128 * scale as i128 * acc_here as i128 / den) as i64
                    };
                    let (shift_a, shift_m) = (rescale(da), rescale(dm));
                    let t = &mut self.totals[level];
                    t.accesses = t.accesses.saturating_add_signed(shift_a);
                    t.misses = t.misses.saturating_add_signed(shift_m).min(t.accesses);
                    t.hits = t.accesses - t.misses;
                    self.bounds[level] +=
                        (dm.unsigned_abs() as u128 * scale as u128 * acc_here as u128)
                            .div_ceil(den as u128) as u64;
                }
            }
        }

        // Export what this loop measured for future donees.  A live audit
        // donates its own bias; a demoted one forwards the donor's,
        // rescaled into this instance's interval units so chained
        // donations stay dimensionally consistent.
        let (out_bias, out_units) = if audit_units > 0 {
            (bias.clone(), audit_units)
        } else if donor_audited {
            let c = self.prior.expect("a donor audit implies a usable prior");
            let forwarded = c
                .bias
                .iter()
                .enumerate()
                .map(|(level, &(da, dm))| {
                    let (acc_donor, _) = c.interval_stats[level];
                    let acc_here = measured[0][level].accesses;
                    let rescale =
                        |d: i64| (d as i128 * acc_here as i128 / acc_donor.max(1) as i128) as i64;
                    (rescale(da), rescale(dm))
                })
                .collect();
            (forwarded, c.audit_units)
        } else {
            (vec![(0i64, 0i64); depth], 0)
        };
        let cal = Calibration {
            period: p,
            prefix_settle: settle,
            stable_depth: growth_end,
            intervals: n as u64,
            interval_stats: measured[0].iter().map(|s| (s.accesses, s.misses)).collect(),
            jitter: jitter.clone(),
            bias: out_bias,
            audit_units: out_units,
        };
        if self
            .measured_cal
            .as_ref()
            .is_none_or(|prev| prev.intervals <= cal.intervals)
        {
            self.measured_cal = Some(cal);
        }
    }

    fn finish(self) -> (SimulationResult, ApproxStats, CalibrationOutcome) {
        let accesses = self.totals.first().map_or(0, |l1| l1.accesses);
        let sampled_fraction = if accesses == 0 {
            1.0
        } else {
            (self.simulated as f64 / accesses as f64).min(1.0)
        };
        let approx = ApproxStats {
            sampled_fraction: if self.estimated_intervals == 0 {
                1.0
            } else {
                sampled_fraction
            },
            per_level_error_bound: self.bounds,
            intervals: self.intervals,
            measured_intervals: self.measured_intervals,
            period: self.period,
        };
        (
            SimulationResult {
                accesses,
                levels: self.totals,
            },
            approx,
            CalibrationOutcome {
                measured: self.measured_cal,
                fallback: self.fallback,
            },
        )
    }
}

/// Adds `from` into `into`, level by level ([`LevelStats::merge`]).
fn merge(into: &mut [LevelStats], from: &[LevelStats]) {
    into.iter_mut().zip(from).for_each(|(t, l)| t.merge(l));
}

/// The iterator values of a top-level loop, in execution order, as
/// [`CompiledLoop::entry`] derives them (stride direction and the loop's
/// own domain honoured).  One flat buffer: a multi-million-iteration loop
/// would spend more time allocating per-iteration vectors than the sampled
/// simulation itself.
fn outer_iterations(l: &CompiledLoop) -> Vec<i64> {
    debug_assert_eq!(l.depth, 1, "sampled loops are top-level");
    let mut iters = Vec::new();
    let Some(entry) = l.entry(&[]) else {
        return iters;
    };
    let mut v = entry.first;
    loop {
        if entry.dense || l.contains(&[v]) {
            iters.push(v);
        }
        match entry.next(v) {
            Some(next) => v = next,
            None => return iters,
        }
    }
}

/// Whether the trace is `p`-periodic beyond its first (coldest)
/// iteration — the cheap validation a calibration prior's period gets
/// against a shortened prefix.  Stricter than [`detect_period`] in that
/// the whole tail must repeat, looser in that `p` need not be minimal (a
/// donor period that is a multiple of the true one still yields sound
/// intervals, just coarser ones).
fn validates_period(trace: &[u64], p: usize) -> bool {
    if trace.len() < p + 2 {
        return false;
    }
    (1..trace.len() - p).all(|i| trace[i] == trace[i + p])
}

/// The trace's cold head: the smallest index from which the remainder is
/// `p`-periodic.  Donated as [`Calibration::prefix_settle`] so a donee
/// knows how much of its shortened prefix to exclude from validation.
fn settle_of(trace: &[u64], p: usize) -> usize {
    let len = trace.len();
    if len < p + 1 {
        return len;
    }
    let mut s = len - p;
    while s > 0 && trace[s - 1] == trace[s - 1 + p] {
        s -= 1;
    }
    s
}

/// The `rate_ppm` a calibration prior suggests for a positive
/// [`SamplingOptions::max_error`] target: the jitter term dominates the
/// reported bound (each skipped interval charges the donor-observed
/// jitter `J`), so the schedule may skip at most `target / (2·J)`
/// intervals — the other half of the budget is left for spread and bias.
/// Never below the requested rate; `None` when no usable prior or no
/// target.
pub(crate) fn suggest_rate(prior: Option<&Calibration>, options: &SamplingOptions) -> Option<u32> {
    let c = prior?;
    if options.max_error == 0 {
        return None;
    }
    let jitter = c.jitter.iter().copied().max().unwrap_or(0);
    if jitter == 0 {
        // A jitter-free donor reports (near-)zero bounds at any rate.
        return Some(options.rate_ppm);
    }
    let n = c.intervals.max(1);
    let allowed_skipped = (options.max_error / 2) / jitter;
    if allowed_skipped >= n {
        return Some(options.rate_ppm);
    }
    let measured_needed = n - allowed_skipped;
    let stride = (n / measured_needed).max(1);
    // Invert `interval_stride()`: stride = ⌈(warmup+1)·PPM / rate⌉.
    let rate = ((u64::from(options.warmup) + 1) * u64::from(PPM)).div_ceil(stride);
    Some(rate.clamp(u64::from(options.rate_ppm), u64::from(PPM)) as u32)
}

/// The smallest period `p ≤ MAX_PERIOD` over which the fingerprint trace's
/// suffix repeats, or 1 when nothing repeats.  The window is anchored at
/// the end of the trace (skipping cold-start iterations) and always spans
/// more than [`MAX_PERIOD`] entries, so a short flat run inside a longer
/// cycle — e.g. the hit run between two periodic misses — cannot pass as
/// a smaller period.
fn detect_period(trace: &[u64]) -> usize {
    let len = trace.len();
    for p in 1..=MAX_PERIOD.min(len.saturating_sub(1)) {
        let window = (2 * p).max(MAX_PERIOD + 2).min(len - p);
        if window < 2 * p {
            continue;
        }
        let start = len - p - window;
        if (start..len - p).all(|i| trace[i] == trace[i + p]) {
            return p;
        }
    }
    1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, Engine, KernelSpec, SimRequest};
    use cache_model::{CacheConfig, ReplacementPolicy};

    fn memory() -> MemoryConfig {
        MemoryConfig::new(vec![
            CacheConfig::with_sets(8, 2, 64, ReplacementPolicy::Lru),
            CacheConfig::with_sets(32, 4, 64, ReplacementPolicy::Lru),
        ])
        .unwrap()
    }

    fn streaming() -> KernelSpec {
        KernelSpec::source(
            "streaming",
            "double A[65536]; for (i = 0; i < 65536; i++) A[i] = A[i];",
        )
    }

    #[test]
    fn options_validate_and_roundtrip_rates() {
        assert!(SamplingOptions::DEFAULT.validate().is_ok());
        assert_eq!(SamplingOptions::from_rate(1.0).unwrap().rate_ppm, PPM);
        assert_eq!(SamplingOptions::from_rate(0.05).unwrap().rate_ppm, 50_000);
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            assert!(SamplingOptions::from_rate(bad).is_err(), "{bad}");
        }
        let zero = SamplingOptions {
            rate_ppm: 0,
            ..SamplingOptions::DEFAULT
        };
        assert!(zero.validate().is_err());
    }

    #[test]
    fn full_rate_is_bit_identical_to_classic() {
        let engine = Engine::new();
        let classic = engine
            .run(&SimRequest::new(streaming(), memory(), Backend::Classic))
            .unwrap();
        let sampled = engine
            .run(&SimRequest::new(
                streaming(),
                memory(),
                Backend::Sampled(SamplingOptions::from_rate(1.0).unwrap()),
            ))
            .unwrap();
        assert_eq!(classic.result, sampled.result);
        assert!(sampled.exact);
        let approx = sampled.approx.expect("sampled reports carry approx");
        assert!(approx.is_exact());
    }

    #[test]
    fn small_kernels_are_simulated_exactly() {
        // Too few outer iterations to form MIN_INTERVALS intervals: the
        // sampler degrades to exact simulation and says so.
        let kernel =
            KernelSpec::source("tiny", "double A[8]; for (i = 0; i < 8; i++) A[i] = A[i];");
        let engine = Engine::new();
        let classic = engine
            .run(&SimRequest::new(kernel.clone(), memory(), Backend::Classic))
            .unwrap();
        let sampled = engine
            .run(&SimRequest::new(kernel, memory(), Backend::sampled()))
            .unwrap();
        assert_eq!(classic.result, sampled.result);
        assert!(sampled.exact);
        assert!(sampled.approx.unwrap().is_exact());
    }

    #[test]
    fn periodic_kernel_extrapolates_exactly_with_zero_bound() {
        // A streaming kernel is period-1 in the shift-invariant
        // fingerprint: every measured interval agrees, so the trapezoid is
        // exact and the bound collapses to zero.
        let engine = Engine::new();
        let classic = engine
            .run(&SimRequest::new(streaming(), memory(), Backend::Classic))
            .unwrap();
        let sampled = engine
            .run(&SimRequest::new(streaming(), memory(), Backend::sampled()))
            .unwrap();
        let approx = sampled.approx.as_ref().expect("approx block");
        assert!(
            approx.sampled_fraction < 0.5,
            "most of the kernel was skipped, got {}",
            approx.sampled_fraction
        );
        assert!(approx.intervals > approx.measured_intervals);
        for (level, bound) in approx.per_level_error_bound.iter().enumerate() {
            let err = classic.result.levels[level]
                .misses
                .abs_diff(sampled.result.levels[level].misses);
            assert!(err <= *bound, "level {level}: error {err} > bound {bound}");
        }
        assert_eq!(
            classic.result.accesses, sampled.result.accesses,
            "rectangular loops extrapolate the access count exactly"
        );
        assert_eq!(approx.per_level_error_bound, vec![0, 0]);
        assert_eq!(
            classic.result.levels, sampled.result.levels,
            "zero bound means exact"
        );
        assert!(!sampled.exact, "estimated intervals are not exact");
    }

    #[test]
    fn guarded_and_negative_stride_roots_are_handled() {
        let kernel = KernelSpec::source(
            "mixed",
            "double A[4096];\n\
             for (i = 4095; i >= 0; i -= 1) if (i >= 64) A[i] = A[i];\n\
             for (j = 0; j < 100; j += 3) A[j] = 0;",
        );
        let engine = Engine::new();
        let classic = engine
            .run(&SimRequest::new(kernel.clone(), memory(), Backend::Classic))
            .unwrap();
        let sampled = engine
            .run(&SimRequest::new(kernel, memory(), Backend::sampled()))
            .unwrap();
        let approx = sampled.approx.expect("approx block");
        for (level, bound) in approx.per_level_error_bound.iter().enumerate() {
            let err = classic.result.levels[level]
                .misses
                .abs_diff(sampled.result.levels[level].misses);
            assert!(err <= *bound, "level {level}: error {err} > bound {bound}");
        }
    }

    #[test]
    fn period_detection_finds_short_cycles() {
        assert_eq!(detect_period(&[7; 32]), 1);
        let two: Vec<u64> = (0..32).map(|i| (i % 2) as u64).collect();
        assert_eq!(detect_period(&two), 2);
        let three: Vec<u64> = (0..32).map(|i| (i % 3) as u64 + 10).collect();
        assert_eq!(detect_period(&three), 3);
        let ramp: Vec<u64> = (0..32).collect();
        assert_eq!(detect_period(&ramp), 1, "aperiodic traces fall back to 1");
        assert_eq!(detect_period(&[]), 1);
    }

    #[test]
    fn calibration_prior_seeds_neighbours_within_bounds() {
        let memory = memory();
        let options = SamplingOptions::DEFAULT;
        let donor = streaming().build().expect("donor builds");
        let (_, _, cold) = run_sampled_with(&donor, &memory, &options, None);
        assert!(!cold.fallback);
        let cal = cold.measured.expect("a sampled run measures a calibration");
        assert!(cal.period >= 1 && cal.intervals > 0);

        // A neighbouring family instance: same shape, smaller footprint.
        let neighbour = KernelSpec::source(
            "streaming-n",
            "double A[61440]; for (i = 0; i < 61440; i++) A[i] = A[i];",
        )
        .build()
        .expect("neighbour builds");
        let classic = simulate(&neighbour, &mut MultiLevelSystem::new(memory.clone()));
        let (result, approx, out) = run_sampled_with(&neighbour, &memory, &options, Some(&cal));
        assert!(!out.fallback, "a same-shape neighbour validates cleanly");
        for (level, bound) in approx.per_level_error_bound.iter().enumerate() {
            let err = classic.levels[level]
                .misses
                .abs_diff(result.levels[level].misses);
            assert!(err <= *bound, "level {level}: error {err} > bound {bound}");
        }
        assert_eq!(classic.accesses, result.accesses);
        // The seeded schedule does strictly less exact work than a cold
        // run of the same kernel — that is the whole point, and it shows
        // the usable prior was consulted.
        let (_, cold_approx, _) = run_sampled_with(&neighbour, &memory, &options, None);
        assert!(
            approx.measured_intervals < cold_approx.measured_intervals,
            "seeded {} vs cold {}",
            approx.measured_intervals,
            cold_approx.measured_intervals
        );
        // The seeded run still measures a calibration for the next donee.
        assert!(out.measured.is_some());
    }

    #[test]
    fn foreign_priors_fall_back_to_the_cold_path_bit_exactly() {
        let memory = memory();
        let options = SamplingOptions::DEFAULT;
        let donor = streaming().build().expect("donor builds");
        let (_, _, cold) = run_sampled_with(&donor, &memory, &options, None);
        let cal = cold.measured.expect("donor calibration");

        // A triangular kernel has an aperiodic behaviour signature: the
        // donor's period cannot validate, so the run must fall back to the
        // full cold prefix — and from there the schedule is identical to a
        // cold run, so the counts are bit-identical, not merely bounded.
        let tri = KernelSpec::source(
            "tri",
            "double A[600]; double x[600];\n\
             for (i = 0; i < 600; i++) for (j = 0; j <= i; j++) x[i] = x[i] + A[j];",
        )
        .build()
        .expect("tri builds");
        let (cold_result, cold_approx, cold_out) = run_sampled_with(&tri, &memory, &options, None);
        assert!(!cold_out.fallback);
        let (result, approx, out) = run_sampled_with(&tri, &memory, &options, Some(&cal));
        // Only a consulted prior can fall back.
        assert!(out.fallback, "a foreign prior must fail validation");
        assert_eq!(result, cold_result);
        assert_eq!(approx, cold_approx);
    }
}
