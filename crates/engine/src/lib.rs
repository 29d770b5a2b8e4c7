//! One front door for every simulator in the workspace.
//!
//! The paper's evaluation compares five ways of counting cache misses —
//! per-access simulation (Algorithm 1), warping simulation (Algorithm 2),
//! HayStack- and PolyCache-style analytical models, and Dinero-IV-style
//! trace simulation — which historically each had a differently-shaped
//! entry point.  This crate redesigns the public API around three types:
//!
//! * [`MemoryConfig`] — an N-level memory-system description (re-exported
//!   from `cache_model`), replacing the ad-hoc single/two-level split;
//! * [`Backend`] — which simulator or model answers the request;
//! * [`Engine`] — [`Engine::run`] dispatches one [`SimRequest`] to its
//!   backend and returns a unified, JSON-serializable [`SimReport`];
//!   [`Engine::run_batch`] fans a request grid out across threads.
//!
//! # Example
//!
//! ```
//! use engine::{Backend, Engine, KernelSpec, SimRequest};
//! use cache_model::{CacheConfig, MemoryConfig, ReplacementPolicy};
//!
//! let kernel = KernelSpec::source(
//!     "stencil",
//!     "double A[1000]; double B[1000];
//!      for (i = 1; i < 999; i++) B[i-1] = A[i-1] + A[i];",
//! );
//! let memory = MemoryConfig::from(
//!     CacheConfig::fully_associative(2, 8, ReplacementPolicy::Lru),
//! );
//!
//! let engine = Engine::new();
//! let classic = engine
//!     .run(&SimRequest::new(kernel.clone(), memory.clone(), Backend::Classic))
//!     .unwrap();
//! let warping = engine
//!     .run(&SimRequest::new(kernel, memory, Backend::warping()))
//!     .unwrap();
//!
//! // Warping is exact: identical counts, almost no explicit simulation.
//! assert_eq!(classic.result, warping.result);
//! assert_eq!(classic.result.levels[0].misses, 3 + 2 * 997);
//! assert!(warping.warping.unwrap().warps > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod canon;
mod report;
mod request;
mod sampling;

pub use cache_model::{MemoryConfig, MemoryConfigError};
pub use canon::CanonicalHash;
pub use report::{ApproxStats, SimReport, WarpingStats};
pub use request::{dataset_by_name, Backend, KernelSpec, SimRequest};
pub use sampling::{SamplingOptions, PPM};

use analytical::{HaystackModel, PolyCacheModel};
use cache_model::{LevelStats, ReplacementPolicy, WritePolicy};
use simulate::{simulate, MultiLevelSystem, SimulationResult};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use trace_sim::{generate_trace, simulate_trace_memory};
use warping::WarpingSimulator;

/// Why a request could not be served.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EngineError {
    /// The kernel failed to parse or elaborate.
    Kernel {
        /// Kernel display name.
        kernel: String,
        /// The parse/elaboration error.
        message: String,
    },
    /// The backend does not support the requested memory system.
    UnsupportedMemory {
        /// Backend label.
        backend: &'static str,
        /// What is unsupported.
        message: String,
    },
    /// The sampling backend's options fail validation.
    InvalidOptions(String),
    /// The simulation panicked; the payload is the panic message.
    Panicked(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Kernel { kernel, message } => {
                write!(f, "kernel `{kernel}` failed to build: {message}")
            }
            EngineError::UnsupportedMemory { backend, message } => {
                write!(
                    f,
                    "backend `{backend}` cannot simulate this memory system: {message}"
                )
            }
            EngineError::InvalidOptions(message) => {
                write!(f, "invalid backend options: {message}")
            }
            EngineError::Panicked(message) => {
                write!(f, "internal error: the simulation panicked: {message}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The backend-polymorphic simulation engine.
///
/// An `Engine` is cheap to construct and stateless between requests; share
/// one per process and call [`Engine::run`]/[`Engine::run_batch`] freely
/// from any thread.
#[derive(Clone, Debug)]
pub struct Engine {
    threads: usize,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine that fans batches out over all available cores.
    pub fn new() -> Self {
        Engine {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Overrides the number of worker threads used by
    /// [`Engine::run_batch`] (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The number of worker threads used by [`Engine::run_batch`].
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Serves one request: builds the kernel, dispatches to the backend and
    /// reports the unified outcome.
    ///
    /// # Errors
    ///
    /// [`EngineError::Kernel`] if the kernel does not build,
    /// [`EngineError::UnsupportedMemory`] if the backend cannot simulate
    /// the requested memory system, and [`EngineError::InvalidOptions`] for
    /// invalid sampling options.
    pub fn run(&self, request: &SimRequest) -> Result<SimReport, EngineError> {
        let kernel = request.kernel.name();
        let serve_start = Instant::now();
        let build_start = Instant::now();
        let scop = request
            .kernel
            .build()
            .map_err(|message| EngineError::Kernel {
                kernel: kernel.clone(),
                message,
            })?;
        let build_ms = build_start.elapsed().as_secs_f64() * 1e3;

        let memory = &request.memory;
        let sim_start = Instant::now();
        let (result, warping, exact, approx) = match &request.backend {
            Backend::Classic => {
                let mut system = MultiLevelSystem::new(memory.clone());
                let result = simulate(&scop, &mut system);
                (result, None, true, None)
            }
            Backend::Warping => {
                let outcome = WarpingSimulator::new(memory.clone()).run(&scop);
                let stats = WarpingStats::from(&outcome);
                (outcome.result, Some(stats), true, None)
            }
            Backend::Haystack => {
                let single = memory
                    .as_single()
                    .ok_or_else(|| EngineError::UnsupportedMemory {
                        backend: "haystack",
                        message: format!(
                            "the HayStack model covers a single cache level, got {} levels",
                            memory.depth()
                        ),
                    })?;
                let lines = single.num_sets() * single.assoc();
                let profile = HaystackModel::new(single.line_size()).analyze(&scop);
                let l1 = LevelStats {
                    accesses: profile.accesses,
                    hits: profile.hits(lines),
                    misses: profile.misses(lines),
                };
                let exact = single.num_sets() == 1
                    && single.policy() == ReplacementPolicy::Lru
                    && memory.write_policy() == WritePolicy::WriteBackWriteAllocate;
                let result = SimulationResult {
                    accesses: profile.accesses,
                    levels: vec![l1],
                };
                (result, None, exact, None)
            }
            Backend::PolyCache => {
                let model = PolyCacheModel::new(memory).map_err(|message| {
                    EngineError::UnsupportedMemory {
                        backend: "polycache",
                        message,
                    }
                })?;
                let levels = model.analyze(&scop);
                let result = SimulationResult {
                    accesses: levels[0].accesses,
                    levels,
                };
                let exact = memory.write_policy() == WritePolicy::WriteBackWriteAllocate;
                (result, None, exact, None)
            }
            Backend::Sampled(options) => {
                options.validate().map_err(EngineError::InvalidOptions)?;
                let mut opts = *options;
                // With a positive error-bound target, an overshooting bound
                // gets one boosted re-run (straight to exact when the
                // overshoot is hopeless).
                let mut attempts = 0;
                let (result, approx) = loop {
                    attempts += 1;
                    let (result, approx) = sampling::run_sampled_with(&scop, memory, &opts);
                    let worst = approx
                        .per_level_error_bound
                        .iter()
                        .copied()
                        .max()
                        .unwrap_or(0);
                    if opts.max_error == 0
                        || worst <= opts.max_error
                        || attempts >= 2
                        || opts.rate_ppm >= PPM
                    {
                        break (result, approx);
                    }
                    // Bounds scale roughly with the skipped share; boost
                    // proportionally to the overshoot (at least 2×), and
                    // give up into the exact path when even a 10× boost
                    // could not close the gap.
                    let ratio = (worst / opts.max_error + 1).max(2);
                    opts.rate_ppm = if ratio > 10 {
                        PPM
                    } else {
                        (u64::from(opts.rate_ppm) * ratio)
                            .min(u64::from(PPM))
                            .try_into()
                            .expect("clamped to PPM")
                    };
                };
                // Sampling that covered the whole iteration space (rate
                // 1.0, or a kernel too small to sample) is exact;
                // anything extrapolated is not, however tight the bound.
                let exact = approx.is_exact();
                (result, None, exact, Some(approx))
            }
            Backend::Trace => {
                let trace = generate_trace(&scop);
                let levels = simulate_trace_memory(&trace, memory);
                let result = SimulationResult {
                    accesses: trace.len() as u64,
                    levels,
                };
                (result, None, true, None)
            }
        };
        let sim_ms = sim_start.elapsed().as_secs_f64() * 1e3;

        Ok(SimReport {
            kernel,
            backend: request.backend.label().to_string(),
            memory: memory.clone(),
            result,
            warping,
            exact,
            build_ms,
            sim_ms,
            wall_ns: Some(serve_start.elapsed().as_nanos() as u64),
            // Stamped by schedulers that queue requests (the serving
            // layer's worker pool); a direct `run` never queues.
            queue_ns: None,
            approx,
        })
    }

    /// Serves a batch of requests, fanning them out across
    /// [`Engine::threads`] worker threads.  Reports come back in request
    /// order and are identical (up to wall-clock timings) to sequential
    /// [`Engine::run`] calls.
    pub fn run_batch(&self, requests: &[SimRequest]) -> Vec<Result<SimReport, EngineError>> {
        let workers = self.threads.min(requests.len());
        if workers <= 1 {
            return requests.iter().map(|request| self.run(request)).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<SimReport, EngineError>>>> =
            requests.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(request) = requests.get(index) else {
                        break;
                    };
                    let outcome = self.run(request);
                    *slots[index]
                        .lock()
                        .expect("no panics while holding the slot") = Some(outcome);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("worker threads joined")
                    .expect("every request was served")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_model::CacheConfig;

    fn stencil() -> KernelSpec {
        KernelSpec::source(
            "stencil",
            "double A[1000]; double B[1000];\n\
             for (i = 1; i < 999; i++) B[i-1] = A[i-1] + A[i];",
        )
    }

    fn fa_lru() -> MemoryConfig {
        MemoryConfig::from(CacheConfig::fully_associative(2, 8, ReplacementPolicy::Lru))
    }

    #[test]
    fn all_five_backends_dispatch() {
        let engine = Engine::new();
        let single = fa_lru();
        let hierarchy = MemoryConfig::polycache_comparison();
        for backend in Backend::ALL {
            let memory = if backend == Backend::PolyCache {
                hierarchy.clone()
            } else {
                single.clone()
            };
            let report = engine
                .run(&SimRequest::new(stencil(), memory, backend))
                .unwrap_or_else(|e| panic!("{backend}: {e}"));
            assert_eq!(report.backend, backend.label());
            assert_eq!(report.result.accesses, 3 * 998, "{backend}");
        }
    }

    #[test]
    fn exact_backends_agree_on_the_running_example() {
        let engine = Engine::new();
        for backend in [Backend::Classic, Backend::warping(), Backend::Trace] {
            let report = engine
                .run(&SimRequest::new(stencil(), fa_lru(), backend))
                .unwrap();
            assert_eq!(report.result.levels[0].misses, 3 + 2 * 997, "{backend}");
            assert!(report.exact);
        }
        // HayStack models exactly this cache (fully-associative LRU).
        let haystack = engine
            .run(&SimRequest::new(stencil(), fa_lru(), Backend::Haystack))
            .unwrap();
        assert_eq!(haystack.result.levels[0].misses, 3 + 2 * 997);
        assert!(haystack.exact);
    }

    #[test]
    fn haystack_flags_approximate_configurations() {
        let engine = Engine::new();
        let set_associative =
            MemoryConfig::from(CacheConfig::with_sets(4, 2, 8, ReplacementPolicy::Plru));
        let report = engine
            .run(&SimRequest::new(
                stencil(),
                set_associative,
                Backend::Haystack,
            ))
            .unwrap();
        assert!(!report.exact);
    }

    #[test]
    fn unsupported_memory_is_a_clean_error() {
        let engine = Engine::new();
        let three_levels = MemoryConfig::new(vec![
            CacheConfig::with_sets(2, 2, 64, ReplacementPolicy::Lru),
            CacheConfig::with_sets(4, 4, 64, ReplacementPolicy::Lru),
            CacheConfig::with_sets(8, 8, 64, ReplacementPolicy::Lru),
        ])
        .unwrap();
        // Only the analytical models are depth-limited (by construction).
        for backend in [Backend::Haystack, Backend::PolyCache] {
            let err = engine
                .run(&SimRequest::new(stencil(), three_levels.clone(), backend))
                .unwrap_err();
            assert!(
                matches!(err, EngineError::UnsupportedMemory { .. }),
                "{backend}"
            );
        }
        // Every simulator handles any depth through the same code path.
        for backend in [Backend::Classic, Backend::warping(), Backend::Trace] {
            let report = engine
                .run(&SimRequest::new(stencil(), three_levels.clone(), backend))
                .unwrap_or_else(|e| panic!("{backend}: {e}"));
            assert_eq!(report.result.depth(), 3, "{backend}");
        }
    }

    #[test]
    fn simulators_agree_on_the_depth_3_test_system() {
        let engine = Engine::new();
        let memory = MemoryConfig::test_system_l3();
        assert_eq!(memory.depth(), 3);
        let reports: Vec<SimReport> = [Backend::Classic, Backend::warping(), Backend::Trace]
            .into_iter()
            .map(|backend| {
                engine
                    .run(&SimRequest::new(stencil(), memory.clone(), backend))
                    .unwrap()
            })
            .collect();
        assert_eq!(reports[0].result, reports[1].result);
        assert_eq!(reports[0].result, reports[2].result);
        assert_eq!(reports[0].result.levels.len(), 3);
    }

    #[test]
    fn exact_backends_agree_under_no_write_allocate() {
        // Write misses that do not allocate change the miss counts of the
        // re-read loop; classic, warping and trace must all honour the
        // hierarchy-wide write policy identically (regression test: the
        // warping/trace paths used to ignore it on single-level configs).
        let engine = Engine::new();
        // The array fits in the cache, so with write allocation the second
        // loop hits everywhere, while without it the first loop leaves the
        // cache empty and the second loop's reads all miss.
        let kernel = KernelSpec::source(
            "write-then-read",
            "double A[16];\n\
             for (i = 0; i < 16; i++) A[i] = 0;\n\
             for (j = 0; j < 16; j++) A[j] = A[j];",
        );
        for policy in [
            WritePolicy::WriteBackWriteAllocate,
            WritePolicy::WriteThroughNoAllocate,
        ] {
            let memory = MemoryConfig::from(CacheConfig::fully_associative(
                32,
                8,
                ReplacementPolicy::Lru,
            ))
            .with_write_policy(policy);
            let reports: Vec<SimReport> = [Backend::Classic, Backend::warping(), Backend::Trace]
                .into_iter()
                .map(|backend| {
                    engine
                        .run(&SimRequest::new(kernel.clone(), memory.clone(), backend))
                        .unwrap()
                })
                .collect();
            assert_eq!(reports[0].result, reports[1].result, "{policy:?}");
            assert_eq!(reports[0].result, reports[2].result, "{policy:?}");
        }
        // And the two policies genuinely differ, so the test has teeth.
        let misses = |policy: WritePolicy| {
            let memory = MemoryConfig::from(CacheConfig::fully_associative(
                32,
                8,
                ReplacementPolicy::Lru,
            ))
            .with_write_policy(policy);
            engine
                .run(&SimRequest::new(kernel.clone(), memory, Backend::Classic))
                .unwrap()
                .result
                .levels[0]
                .misses
        };
        assert!(
            misses(WritePolicy::WriteThroughNoAllocate)
                > misses(WritePolicy::WriteBackWriteAllocate)
        );
    }

    #[test]
    fn polycache_rejects_non_lru() {
        let engine = Engine::new();
        let plru = MemoryConfig::new(vec![
            CacheConfig::new(32 * 1024, 8, 64, ReplacementPolicy::Plru),
            CacheConfig::new(256 * 1024, 8, 64, ReplacementPolicy::Plru),
        ])
        .unwrap();
        let err = engine
            .run(&SimRequest::new(stencil(), plru, Backend::PolyCache))
            .unwrap_err();
        assert!(matches!(err, EngineError::UnsupportedMemory { .. }));
    }

    #[test]
    fn kernel_errors_carry_the_kernel_name() {
        let engine = Engine::new();
        let bad = KernelSpec::source("broken", "for (i = 0; i < ; i++) ;");
        let err = engine
            .run(&SimRequest::new(bad, fa_lru(), Backend::Classic))
            .unwrap_err();
        match err {
            EngineError::Kernel { kernel, .. } => assert_eq!(kernel, "broken"),
            other => panic!("expected a kernel error, got {other:?}"),
        }
    }

    #[test]
    fn batch_matches_sequential() {
        let engine = Engine::new().with_threads(4);
        let kernels = [
            stencil(),
            KernelSpec::source(
                "streaming",
                "double A[4096]; for (i = 0; i < 4096; i++) A[i] = 0;",
            ),
        ];
        let memories = [
            fa_lru(),
            MemoryConfig::from(CacheConfig::with_sets(8, 2, 8, ReplacementPolicy::Fifo)),
        ];
        let backends = [Backend::Classic, Backend::warping(), Backend::Trace];
        let grid = SimRequest::grid(&kernels, &memories, &backends);
        assert_eq!(grid.len(), 12);
        let batch = engine.run_batch(&grid);
        for (request, batched) in grid.iter().zip(&batch) {
            let sequential = engine.run(request);
            match (batched, sequential) {
                (Ok(b), Ok(s)) => assert!(b.same_outcome(&s)),
                (b, s) => panic!("outcome mismatch: {b:?} vs {s:?}"),
            }
        }
    }

    #[test]
    fn requests_round_trip_through_json() {
        let request = SimRequest::new(
            KernelSpec::polybench(polybench::Kernel::Jacobi1d, polybench::Dataset::Mini),
            MemoryConfig::test_system(),
            Backend::Trace,
        );
        let json = serde_json::to_string(&request).unwrap();
        let back: SimRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, request);
    }

    #[test]
    fn reports_serialize_to_json() {
        let engine = Engine::new();
        let report = engine
            .run(&SimRequest::new(stencil(), fa_lru(), Backend::warping()))
            .unwrap();
        let json = report.to_json();
        let value: serde::Value = serde_json::from_str(&json).unwrap();
        // The per-level counts appear once, under `result.levels`.
        let result = value.get("result").unwrap();
        let levels = result
            .get("levels")
            .and_then(serde::Value::as_array)
            .unwrap();
        assert_eq!(levels.len(), 1);
        assert_eq!(
            levels[0].get("misses"),
            Some(&serde::Value::UInt(3 + 2 * 997))
        );
        assert!(value.get("levels").is_none());
        assert!(result.get("l1").is_none());
        assert!(result.get("l2").is_none());
        assert_eq!(
            value.get("backend").and_then(serde::Value::as_str),
            Some("warping")
        );
    }
}
