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
//!
//! The schedule — prefix, period, stabilisation depth, audit — is derived
//! from the kernel, the memory system and the [`SamplingOptions`] alone,
//! never from an earlier run, so one request always gets one report.

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
    /// positive target makes the engine re-run at a boosted rate at most
    /// once when the bound reported at `rate_ppm` overshoots.  The reported
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

/// Runs the sampling backend: simulates representative intervals and
/// extrapolates the rest.  The schedule depends only on the kernel, the
/// memory system and `options`, which must already be validated.
pub(crate) fn run_sampled_with(
    scop: &Scop,
    memory: &MemoryConfig,
    options: &SamplingOptions,
) -> (SimulationResult, ApproxStats) {
    let depth = memory.depth();
    if options.rate_ppm >= PPM {
        // Full rate: run the classic path verbatim so the counts are
        // bit-identical by construction, not merely by argument.
        let result = simulate(scop, &mut MultiLevelSystem::new(memory.clone()));
        return (result, ApproxStats::exact(depth));
    }
    // The exact and measured intervals replay the compiled run stream
    // (batched same-line updates).
    let compiled = compile(scop);
    let scratch = compiled.new_scratch();
    let mut sampler = Sampler {
        config: memory,
        options: *options,
        state: MultiLevelState::new(memory),
        totals: vec![LevelStats::default(); depth],
        bounds: vec![0; depth],
        clock: 0,
        simulated: 0,
        intervals: 0,
        measured_intervals: 0,
        estimated_intervals: 0,
        period: 0,
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

    /// Simulates the first `prefix` outer iterations exactly (counts
    /// trusted) and returns each iteration's behaviour signature.
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
        prefix: usize,
    ) -> Vec<u64> {
        (0..prefix)
            .map(|idx| {
                let local = self.run_iters(cl, iters, base, idx..idx + 1, true);
                let mut signature = 0xcbf2_9ce4_8422_2325u64;
                for stats in &local {
                    signature = (signature ^ stats.misses).wrapping_mul(0x0000_0100_0000_01b3);
                    signature = (signature ^ stats.accesses).wrapping_mul(0x0000_0100_0000_01b3);
                }
                signature
            })
            .collect()
    }

    /// Samples one top-level loop (or simulates it exactly when it is too
    /// small for sampling to pay off).
    fn run_loop(&mut self, cl: &CompiledLoop) {
        let iters = outer_iterations(cl);
        let total = iters.len();
        let base = self.clock;
        self.clock = base + total as i64;

        // Phase 1: exact prefix, then period detection over its
        // behaviour signatures.
        let prefix = total.min(MAX_PREFIX);
        let trace = self.trace_prefix(cl, &iters, base, prefix);
        let p = detect_period(&trace);
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
        // One past the last simulated interval.
        let mut prev_end = 0usize;
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
        let mut si = 0usize;
        while si < schedule.len() {
            let j = schedule[si];
            let gap = j - prev_end;
            if gap > 0 && audit_units == 0 {
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
        }
    }

    fn finish(self) -> (SimulationResult, ApproxStats) {
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
}
