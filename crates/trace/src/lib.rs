//! Trace generation and trace-driven cache simulation.
//!
//! This crate plays the role that Dinero IV (plus QEMU trace generation) and
//! the PAPI hardware measurements play in the paper's evaluation:
//!
//! * [`generate_trace`] materialises the full sequence of memory accesses of
//!   a SCoP, like a binary-instrumentation trace would;
//! * [`simulate_trace_memory`] drives a cache model over such a trace,
//!   access by access — the classic trace-driven simulator whose cost is
//!   proportional to the trace length (the Dinero IV baseline of Fig. 12);
//! * [`HardwareReference`] produces the "measured" miss counts used as the
//!   accuracy baseline of Fig. 11/13/14.  Real hardware is not available in
//!   this reproduction, so the reference is a richer simulation (it includes
//!   scalar accesses and models the test system's set-associative PLRU L1)
//!   perturbed by a small deterministic factor standing in for the
//!   out-of-order and speculative effects the paper observes; see DESIGN.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cache_model::{
    Access, CacheConfig, LevelStats, MemoryConfig, MultiLevelState, ReplacementPolicy,
};
use scop::{compile, elaborate, parse_program, ElaborateOptions, Scop};

/// Materialises the complete memory-access trace of a SCoP.
///
/// The returned vector contains one [`Access`] per dynamic array reference,
/// in execution order.  For large problem sizes this is deliberately
/// expensive — it models the trace-generation overhead of binary
/// instrumentation (QEMU in the paper's Dinero IV baseline).
pub fn generate_trace(scop: &Scop) -> Vec<Access> {
    let mut trace = Vec::new();
    visit_accesses(scop, |access| trace.push(access));
    trace
}

/// Visits every dynamic access of `scop` in execution order through the
/// compiled walk.
fn visit_accesses(scop: &Scop, mut visit: impl FnMut(Access)) {
    let compiled = compile(scop);
    let mut scratch = compiled.new_scratch();
    compiled.for_each_access(&mut scratch, |_, address, kind| {
        visit(Access { address, kind })
    });
}

/// Simulates a trace against a memory system of any depth, returning the
/// statistics of every level (L1 first).  This is the single trace-replay
/// path behind [`dinero_style_simulation`] and the engine's trace backend.  The replay state is the flat concrete store: beyond one
/// zeroed directory per level, the cost is the trace length plus the
/// touched sets — never the cache capacity.
pub fn simulate_trace_memory(trace: &[Access], config: &MemoryConfig) -> Vec<LevelStats> {
    let config = config.normalized();
    let mut state = MultiLevelState::new(&config);
    let mut stats = vec![LevelStats::default(); config.depth()];
    for access in trace {
        state.access(&config, *access).record_into(&mut stats);
    }
    stats
}

/// End-to-end Dinero-IV-style simulation of a SCoP: generate the trace, then
/// simulate it on a single cache level (whose own write-allocate flag sets
/// the write policy).  Returns the trace length together with the
/// statistics so callers can report both.
pub fn dinero_style_simulation(scop: &Scop, config: &CacheConfig) -> (u64, LevelStats) {
    let trace = generate_trace(scop);
    let stats = simulate_trace_memory(&trace, &MemoryConfig::from(config.clone()))[0];
    (trace.len() as u64, stats)
}

/// The stand-in for PAPI measurements on the test system.
///
/// The reference model differs from the simulators under evaluation in two
/// deliberate ways, mirroring the differences between simulation and real
/// hardware discussed in §6.4 of the paper:
///
/// 1. it simulates *both* array and scalar accesses (like the real binary,
///    which spills scalars and loop counters to the stack), and
/// 2. it applies a small deterministic perturbation to the miss count,
///    standing in for out-of-order execution, speculation and prefetching
///    effects that none of the evaluated approaches capture.
#[derive(Clone, Debug)]
pub struct HardwareReference {
    /// Cache configuration of the measured level (the test system's L1).
    pub config: CacheConfig,
    /// Relative magnitude of the perturbation (default 0.08, i.e. up to ±8%).
    pub perturbation: f64,
}

impl Default for HardwareReference {
    fn default() -> Self {
        HardwareReference {
            config: CacheConfig::new(32 * 1024, 8, 64, ReplacementPolicy::Plru),
            perturbation: 0.08,
        }
    }
}

impl HardwareReference {
    /// A reference model for an explicit cache configuration.
    pub fn new(config: CacheConfig) -> Self {
        HardwareReference {
            config,
            perturbation: 0.08,
        }
    }

    /// "Measures" the number of L1 misses of a kernel given its mini-C
    /// source.  The source is re-elaborated with scalar accesses enabled, so
    /// the measured access stream is a superset of the one the analytical
    /// approaches see — exactly the situation of Fig. 11.
    ///
    /// # Errors
    ///
    /// Returns an error string if the source cannot be parsed or elaborated.
    pub fn measure_source(&self, source: &str) -> Result<MeasuredKernel, String> {
        let program = parse_program(source).map_err(|e| e.to_string())?;
        let scop =
            elaborate(&program, &ElaborateOptions::with_scalars()).map_err(|e| e.to_string())?;
        Ok(self.measure_scop(&scop))
    }

    /// "Measures" an already-elaborated SCoP (which should include scalar
    /// accesses for maximum fidelity).
    pub fn measure_scop(&self, scop: &Scop) -> MeasuredKernel {
        let memory = MemoryConfig::single(self.config.clone());
        let mut state = MultiLevelState::new(&memory);
        let mut stats = LevelStats::default();
        visit_accesses(scop, |access| {
            stats.record(state.access(&memory, access).hit);
        });
        let misses = perturb(stats.misses, self.perturbation, scop.footprint_bytes());
        MeasuredKernel {
            accesses: stats.accesses,
            simulated_misses: stats.misses,
            measured_misses: misses,
        }
    }
}

/// The result of a hardware "measurement".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MeasuredKernel {
    /// Number of accesses performed (arrays + scalars).
    pub accesses: u64,
    /// Miss count of the underlying simulation before perturbation.
    pub simulated_misses: u64,
    /// Perturbed miss count, standing in for the PAPI measurement.
    pub measured_misses: u64,
}

/// Applies a deterministic relative perturbation in `[-magnitude, +magnitude]`
/// derived from a hash of the seed, so that repeated "measurements" of the
/// same kernel agree (the paper takes the median of 10 runs).
fn perturb(value: u64, magnitude: f64, seed: u64) -> u64 {
    // SplitMix64 step: cheap, deterministic, well distributed.
    let mut z = seed.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^= z >> 31;
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // in [0, 1)
    let factor = 1.0 + magnitude * (2.0 * unit - 1.0);
    ((value as f64) * factor).round().max(0.0) as u64
}

/// Error metrics comparing a predicted miss count against the measured one
/// (the two metrics of Fig. 11).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct AccuracyError {
    /// `|predicted - measured|`
    pub absolute: u64,
    /// `absolute / measured` (0 if `measured` is 0).
    pub relative: f64,
}

impl AccuracyError {
    /// Computes the error of a prediction with respect to a measurement.
    pub fn of(predicted: u64, measured: u64) -> Self {
        let absolute = predicted.abs_diff(measured);
        let relative = if measured == 0 {
            0.0
        } else {
            absolute as f64 / measured as f64
        };
        AccuracyError { absolute, relative }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scop::parse_scop;

    fn stencil() -> Scop {
        parse_scop(
            "double A[1000]; double B[1000];\n\
             for (i = 1; i < 999; i++) B[i-1] = A[i-1] + A[i];",
        )
        .unwrap()
    }

    #[test]
    fn trace_has_one_entry_per_access() {
        let trace = generate_trace(&stencil());
        assert_eq!(trace.len(), 3 * 998);
        assert!(trace[2].kind.is_write());
        assert!(!trace[0].kind.is_write());
    }

    #[test]
    fn trace_simulation_matches_running_example() {
        let config = CacheConfig::fully_associative(2, 8, ReplacementPolicy::Lru);
        let (len, stats) = dinero_style_simulation(&stencil(), &config);
        assert_eq!(len, 3 * 998);
        assert_eq!(stats.misses, 3 + 2 * 997);
    }

    #[test]
    fn hierarchy_trace_simulation() {
        let config = MemoryConfig::new(vec![
            CacheConfig::fully_associative(2, 8, ReplacementPolicy::Lru),
            CacheConfig::fully_associative(4096, 8, ReplacementPolicy::Lru),
        ])
        .unwrap();
        let trace = generate_trace(&stencil());
        let stats = simulate_trace_memory(&trace, &config);
        assert_eq!(stats[0].misses, 3 + 2 * 997);
        assert_eq!(stats[1].misses, 999 + 998);
    }

    #[test]
    fn hardware_reference_is_deterministic_and_close() {
        let reference = HardwareReference::default();
        let source = "double A[1000]; double B[1000];\n\
                      for (i = 1; i < 999; i++) B[i-1] = A[i-1] + A[i];";
        let a = reference.measure_source(source).unwrap();
        let b = reference.measure_source(source).unwrap();
        assert_eq!(a, b, "measurements are deterministic");
        // Scalar accesses are included: more accesses than the 3 * 998 array
        // accesses alone would give — no, this kernel has no scalars, so the
        // counts coincide.
        assert_eq!(a.accesses, 3 * 998);
        let deviation = a.measured_misses.abs_diff(a.simulated_misses) as f64
            / a.simulated_misses.max(1) as f64;
        assert!(deviation <= 0.09, "perturbation stays within its bound");
    }

    #[test]
    fn hardware_reference_sees_scalar_accesses() {
        let reference = HardwareReference::default();
        let source = "double A[100];\n\
                      for (i = 0; i < 100; i++) s = s + A[i];";
        let m = reference.measure_source(source).unwrap();
        // Each iteration: read s, read A[i], write s.
        assert_eq!(m.accesses, 300);
    }

    #[test]
    fn accuracy_error_metrics() {
        let e = AccuracyError::of(110, 100);
        assert_eq!(e.absolute, 10);
        assert!((e.relative - 0.1).abs() < 1e-12);
        let zero = AccuracyError::of(5, 0);
        assert_eq!(zero.absolute, 5);
        assert_eq!(zero.relative, 0.0);
    }
}
