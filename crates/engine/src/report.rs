//! The unified simulation report returned by every backend.

use cache_model::MemoryConfig;
use serde::{Serialize, Value};
use simulate::SimulationResult;
use warping::WarpingOutcome;

/// Warping-specific statistics (present when the request ran on
/// [`Backend::Warping`](crate::Backend::Warping)).
///
/// Equality ignores [`warp_apply_ns`](WarpingStats::warp_apply_ns), which is
/// wall-clock telemetry and varies run to run (so batched and sequential
/// runs of the same request still report the
/// [same outcome](crate::SimReport::same_outcome)).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct WarpingStats {
    /// Number of successful warp events.
    pub warps: u64,
    /// Number of accesses skipped by warping.
    pub warped_accesses: u64,
    /// Number of accesses simulated explicitly.
    pub non_warped_accesses: u64,
    /// Share of accesses that could not be warped, in `[0, 1]` (the top
    /// plot of Fig. 6 of the paper).
    pub non_warped_share: f64,
    /// Number of warp-match attempts.
    pub match_attempts: u64,
    /// Match attempts whose rolling fingerprint found a candidate in the
    /// match map (only those proceed to exact key comparison).
    pub fingerprint_hits: u64,
    /// Number of exact canonical-key constructions — the quantity the
    /// fingerprint filter exists to minimise.
    pub exact_key_builds: u64,
    /// Levels (summed over applied warps) whose frozen labels were matched
    /// through epoch renormalisation — the warps that current-iterator
    /// normalisation could never find (L1-resident kernels over big
    /// hierarchies).
    pub stale_label_renorms: u64,
    /// Wall-clock nanoseconds spent applying warps.  Ignored by
    /// `PartialEq`.
    pub warp_apply_ns: u64,
}

impl PartialEq for WarpingStats {
    fn eq(&self, other: &Self) -> bool {
        self.warps == other.warps
            && self.warped_accesses == other.warped_accesses
            && self.non_warped_accesses == other.non_warped_accesses
            && self.non_warped_share == other.non_warped_share
            && self.match_attempts == other.match_attempts
            && self.fingerprint_hits == other.fingerprint_hits
            && self.exact_key_builds == other.exact_key_builds
            && self.stale_label_renorms == other.stale_label_renorms
    }
}

impl From<&WarpingOutcome> for WarpingStats {
    fn from(outcome: &WarpingOutcome) -> Self {
        WarpingStats {
            warps: outcome.warps,
            warped_accesses: outcome.warped_accesses,
            non_warped_accesses: outcome.non_warped_accesses,
            non_warped_share: outcome.non_warped_share(),
            match_attempts: outcome.match_attempts,
            fingerprint_hits: outcome.fingerprint_hits,
            exact_key_builds: outcome.exact_key_builds,
            stale_label_renorms: outcome.stale_label_renorms,
            warp_apply_ns: outcome.warp_apply_ns,
        }
    }
}

/// Approximation statistics reported by the sampling backend
/// ([`Backend::Sampled`](crate::Backend::Sampled)): how much of the
/// iteration space was actually simulated and how far the extrapolated
/// counts can be from exact simulation.
///
/// The error bound is *empirical*, derived from the spread of the measured
/// intervals (bracketing difference plus worst observed interval-to-interval
/// jitter): it is exact — zero — for kernels whose cache behaviour is
/// periodic in the detected interval, and a good-faith envelope otherwise.
/// A report whose [`is_exact`](ApproxStats::is_exact) is `true` simulated
/// everything and its counts are bit-identical to the classic backend.
#[derive(Clone, Debug, PartialEq)]
pub struct ApproxStats {
    /// Share of dynamic accesses actually simulated, in `[0, 1]`
    /// (`1.0` means nothing was extrapolated).
    pub sampled_fraction: f64,
    /// Per-level upper bound on the absolute miss-count error of
    /// [`SimReport::result`], L1 first.
    pub per_level_error_bound: Vec<u64>,
    /// Intervals in the sampling schedule (0 when the kernel was too small
    /// to sample and was simulated exactly).
    pub intervals: u64,
    /// Intervals simulated and counted (the rest were extrapolated).
    pub measured_intervals: u64,
    /// Detected outer-loop period, in outer iterations per interval
    /// (largest across sampled loops; 0 when nothing was sampled).
    pub period: u64,
}

impl ApproxStats {
    /// The statistics of a run that simulated everything: full coverage,
    /// zero error.
    pub fn exact(depth: usize) -> Self {
        ApproxStats {
            sampled_fraction: 1.0,
            per_level_error_bound: vec![0; depth],
            intervals: 0,
            measured_intervals: 0,
            period: 0,
        }
    }

    /// Whether the run covered the whole iteration space (no extrapolation,
    /// counts bit-identical to exact simulation).
    pub fn is_exact(&self) -> bool {
        self.sampled_fraction >= 1.0 && self.per_level_error_bound.iter().all(|&b| b == 0)
    }
}

impl Serialize for ApproxStats {
    fn serialize_value(&self) -> Value {
        Value::Object(vec![
            (
                "sampled_fraction".to_string(),
                self.sampled_fraction.serialize_value(),
            ),
            (
                "per_level_error_bound".to_string(),
                self.per_level_error_bound.serialize_value(),
            ),
            ("intervals".to_string(), self.intervals.serialize_value()),
            (
                "measured_intervals".to_string(),
                self.measured_intervals.serialize_value(),
            ),
            ("period".to_string(), self.period.serialize_value()),
        ])
    }
}

/// The result of one [`SimRequest`](crate::SimRequest): every backend —
/// simulators, analytical models and the trace replayer — reports through
/// this one serializable shape.
///
/// Serialization note: the optional per-request timing fields
/// ([`wall_ns`](SimReport::wall_ns), [`queue_ns`](SimReport::queue_ns)) are
/// *omitted* from the JSON object when unset, so consumers written before
/// they existed see exactly the shape they always did.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Kernel display name.
    pub kernel: String,
    /// Backend label (`classic`, `warping`, `haystack`, `polycache`,
    /// `trace`).
    pub backend: String,
    /// The memory system the request asked for.
    pub memory: MemoryConfig,
    /// Access and per-level hit/miss counts, L1 first — the only place a
    /// report carries them.  For the exact backends these counts are
    /// bit-for-bit what `simulate::simulate_memory` produces.
    pub result: SimulationResult,
    /// Warping statistics, for the warping backend.
    pub warping: Option<WarpingStats>,
    /// Whether the backend models the requested memory system exactly.
    /// The simulators are always exact; the analytical backends are exact
    /// only on the cache models they were built for (fully-associative LRU
    /// for HayStack, write-allocate LRU hierarchies for PolyCache) and
    /// otherwise report their model's counts as an approximation.
    pub exact: bool,
    /// Wall-clock time spent building (parsing + elaborating) the kernel,
    /// in milliseconds.
    pub build_ms: f64,
    /// Wall-clock time spent simulating, in milliseconds.
    pub sim_ms: f64,
    /// End-to-end wall-clock nanoseconds serving this request (build +
    /// simulate), stamped by [`Engine::run`](crate::Engine::run).  `None`
    /// for reports that predate the field (e.g. deserialized from old
    /// JSON); omitted from JSON when unset.
    pub wall_ns: Option<u64>,
    /// Nanoseconds the request waited in a scheduler queue before a worker
    /// picked it up.  Stamped by the serving layer's worker pool
    /// (`crates/serve`); `None` for requests that never queued; omitted
    /// from JSON when unset.
    pub queue_ns: Option<u64>,
    /// Approximation statistics, for the sampling backend.  `None` for
    /// every exact backend; omitted from JSON when unset, so consumers of
    /// exact reports keep seeing the shape they always did.
    pub approx: Option<ApproxStats>,
}

impl SimReport {
    /// Build + simulation time in milliseconds (the paper's Fig. 8/9
    /// methodology, which includes SCoP extraction on both sides).
    pub fn total_ms(&self) -> f64 {
        self.build_ms + self.sim_ms
    }

    /// Whether two reports describe the same outcome: equal up to
    /// wall-clock timings, which vary run to run.
    pub fn same_outcome(&self, other: &SimReport) -> bool {
        self.kernel == other.kernel
            && self.backend == other.backend
            && self.memory == other.memory
            && self.result == other.result
            && self.warping == other.warping
            && self.exact == other.exact
            && self.approx == other.approx
    }

    /// The report as a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("reports serialize")
    }
}

// Hand-written (rather than derived) so the optional timing fields can be
// skipped when unset — pre-existing JSON consumers keep seeing the exact
// object shape they were written against.
impl Serialize for SimReport {
    fn serialize_value(&self) -> Value {
        let mut fields = vec![
            ("kernel".to_string(), self.kernel.serialize_value()),
            ("backend".to_string(), self.backend.serialize_value()),
            ("memory".to_string(), self.memory.serialize_value()),
            ("result".to_string(), self.result.serialize_value()),
            ("warping".to_string(), self.warping.serialize_value()),
            ("exact".to_string(), self.exact.serialize_value()),
            ("build_ms".to_string(), self.build_ms.serialize_value()),
            ("sim_ms".to_string(), self.sim_ms.serialize_value()),
        ];
        if let Some(wall_ns) = self.wall_ns {
            fields.push(("wall_ns".to_string(), wall_ns.serialize_value()));
        }
        if let Some(queue_ns) = self.queue_ns {
            fields.push(("queue_ns".to_string(), queue_ns.serialize_value()));
        }
        if let Some(approx) = &self.approx {
            fields.push(("approx".to_string(), approx.serialize_value()));
        }
        Value::Object(fields)
    }
}
