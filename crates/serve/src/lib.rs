//! Simulation-as-a-service over the [`Engine`] facade.
//!
//! PRs 3–5 made a single request cheap (~1–2 ms even over 64 MiB
//! hierarchies); the remaining cost of serving heavy traffic sits *above*
//! [`Engine::run_batch`]: every request used to re-simulate from scratch,
//! identical in-flight requests each paid full price, and batch fan-out
//! was static.  This crate adds the serving layer the ROADMAP's
//! millions-of-users story needs:
//!
//! * a **content-addressed report cache** ([`cache::ReportCache`]) keyed by
//!   [`SimRequest::canonical_hash`] — repeated kernels, under any spelling,
//!   are cache hits;
//! * **in-flight dedup** ([`dedup::PendingMap`]) — a thundering herd of one
//!   kernel coalesces onto a single simulation;
//! * a **family tier** ([`family`]) — parametric kernels resolve through a
//!   family registry to their cached reports;
//! * a **worker pool** ([`pool::WorkerPool`]) on one shared FIFO queue,
//!   recording per-request queue latency;
//! * a **JSON-lines wire protocol** ([`wire::serve_lines`]) streaming
//!   reports back out of order as they finish, with a GraphBrew-style
//!   [`ServeStats`] JSON summary on shutdown;
//! * a **degraded mode** ([`ServeConfig::exact_budget`]) — exact requests
//!   whose kernels exceed an operator-set access budget are rewritten onto
//!   the interval-sampling backend ([`engine::Backend::Sampled`]) with a
//!   reported error bound, so one oversized kernel cannot monopolise a
//!   worker.  Degraded reports are cached under the sampled request's own
//!   canonical address (cached exact reports are never silently replaced)
//!   and their wire envelopes are marked `"approx": true`.
//!
//! The service keeps no simulation state between requests: a report
//! depends only on its request, so the same request gets the same report
//! whatever was submitted before it, and a cached report stands in for a
//! fresh run.
//!
//! # Example
//!
//! ```
//! use engine::{Backend, KernelSpec, SimRequest};
//! use cache_model::{CacheConfig, MemoryConfig, ReplacementPolicy};
//! use serve::{Served, ServeConfig, SimService};
//!
//! let service = SimService::new(ServeConfig::default());
//! let request = SimRequest::new(
//!     KernelSpec::source("k", "double A[64]; for (i = 0; i < 64; i++) A[i] = A[i];"),
//!     MemoryConfig::from(CacheConfig::fully_associative(8, 8, ReplacementPolicy::Lru)),
//!     Backend::warping(),
//! );
//! let (cold, how) = service.submit(&request).unwrap();
//! assert_eq!(how, Served::Simulated);
//! let (warm, how) = service.submit(&request).unwrap();
//! assert_eq!(how, Served::CacheHit);
//! // The warm report is byte-identical to the cold one.
//! assert_eq!(cold.to_json(), warm.to_json());
//! assert_eq!(service.stats().cache_hits, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod dedup;
pub mod family;
pub mod pool;
pub mod wire;

pub use cache::{CacheCounters, ReportCache};
pub use dedup::{Claim, Follower, LeaderToken, PendingMap};
pub use family::FamilyStats;
pub use pool::{PoolCounters, WorkerPool};
pub use wire::{serve_lines, serve_lines_with, WireOptions};

use family::{FamilyEntry, FamilyRegistry};

use engine::{Backend, Engine, EngineError, KernelSpec, SamplingOptions, SimReport, SimRequest};
use serde::Serialize;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// How the serving layer answered a submission.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Served {
    /// The request ran on the engine (a cold miss).
    Simulated,
    /// The report came from the content-addressed cache.
    CacheHit,
    /// The submission coalesced onto an identical in-flight simulation.
    Coalesced,
}

impl Served {
    /// A short stable identifier used on the wire.
    pub fn label(self) -> &'static str {
        match self {
            Served::Simulated => "simulated",
            Served::CacheHit => "cache_hit",
            Served::Coalesced => "coalesced",
        }
    }
}

/// Configuration of a [`SimService`].
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker threads in the scheduling pool.
    pub workers: usize,
    /// Report-cache bound, in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Exact-simulation budget, in dynamic accesses.  When set, an exact
    /// simulation request (classic, warping or trace) whose kernel exceeds
    /// this many accesses is served **degraded**: the service rewrites it
    /// onto [`Backend::Sampled`] with the default sampling options, so one
    /// oversized kernel cannot monopolise a worker.  Degraded reports are
    /// cached under the *sampled* request's canonical address — a cached
    /// exact report is never silently replaced by an approximation — and
    /// the wire protocol marks their envelopes `"approx": true`.  `None`
    /// (the default) serves every request exactly as asked.
    pub exact_budget: Option<u64>,
    /// Has no effect: every request runs on [`Engine::run`], which
    /// carries no state from one request to the next.  Kept so that the
    /// existing `ServeConfig { .. }` literals of the benchmark package
    /// still compile; it goes once they drop it.
    pub warm_paths: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cache_capacity: 4096,
            exact_budget: None,
            warm_paths: true,
        }
    }
}

impl ServeConfig {
    /// The default configuration with `WARPSIM_SERVE_WORKERS` /
    /// `WARPSIM_SERVE_CACHE_CAP` environment overrides applied (the
    /// GraphBrew-style env-var configuration idiom, so deployments can tune
    /// the service without new flags).
    pub fn from_env() -> Self {
        let mut config = ServeConfig::default();
        if let Some(workers) = env_usize("WARPSIM_SERVE_WORKERS") {
            config.workers = workers.max(1);
        }
        if let Some(capacity) = env_usize("WARPSIM_SERVE_CACHE_CAP") {
            config.cache_capacity = capacity;
        }
        if let Some(budget) = env_u64("WARPSIM_SERVE_EXACT_BUDGET") {
            config.exact_budget = Some(budget);
        }
        config
    }

    /// Validates operator-supplied values for a *server* deployment: both
    /// the worker pool and the report cache must be non-degenerate.
    /// (Embedders may still construct a `cache_capacity: 0` config directly
    /// to disable caching; a server with no cache or no workers is a
    /// misconfiguration, not a mode.)
    ///
    /// # Errors
    ///
    /// A message naming the offending field and a working range.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err(
                "workers must be at least 1: a pool with zero workers would accept \
                 requests but never run them"
                    .to_string(),
            );
        }
        if self.cache_capacity == 0 {
            return Err(
                "cache capacity must be at least 1 entry: capacity 0 disables the \
                 content-addressed report cache, so every request would re-simulate"
                    .to_string(),
            );
        }
        if self.exact_budget == Some(0) {
            return Err(
                "exact budget must be at least 1 access: a budget of 0 would degrade \
                 every request to sampling; omit the budget to serve everything exactly"
                    .to_string(),
            );
        }
        Ok(())
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// A JSON-serializable snapshot of the service counters (exported on
/// shutdown by the wire protocol, GraphBrew-style, so downstream tools can
/// scrape cache efficiency without parsing logs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct ServeStats {
    /// Submissions accepted.
    pub requests: u64,
    /// Submissions that ran a simulation.
    pub simulated: u64,
    /// Submissions answered from the report cache, at their first probe
    /// or at a leader's re-probe.  Without errors, `cache_hits + coalesced
    /// + simulated == requests`.
    pub cache_hits: u64,
    /// First probes that missed and stayed misses (simulated + coalesced +
    /// errored, less submissions that panicked before probing the cache);
    /// `cache_hits + cache_misses` is the number of first probes.
    pub cache_misses: u64,
    /// Submissions that coalesced onto an in-flight identical request.
    pub coalesced: u64,
    /// Reports evicted to keep the cache within its bound.
    pub evictions: u64,
    /// Reports currently cached.
    pub cache_entries: u64,
    /// Cache bound, in entries.
    pub cache_capacity: u64,
    /// Submissions whose simulation failed, and submissions that panicked
    /// anywhere ([`EngineError::Panicked`]).  Errors are never cached; a
    /// follower handed its leader's error is not counted again.
    pub errors: u64,
    /// Wire lines answered with an error envelope before any submission:
    /// unparsable lines, family requests whose family or bindings do not
    /// resolve, and failed family registrations.
    pub rejected: u64,
    /// Submissions rewritten onto the sampling backend because their kernel
    /// exceeded the exact-simulation budget
    /// ([`ServeConfig::exact_budget`]).  Counts every degraded submission,
    /// including ones then answered from the report cache.
    pub degraded: u64,
    /// Worker threads in the scheduling pool.
    pub workers: u64,
    /// Kernel families registered (explicitly or on first parametric
    /// submission).
    pub families: u64,
    /// Submissions routed through the family tier.
    pub family_requests: u64,
    /// Family-tier submissions answered from the report cache.
    pub family_hits: u64,
    /// Always 0: no request is seeded from an earlier one.  Kept so that
    /// the benchmark package's serve metrics still compile; it goes once
    /// they stop reading it.
    pub calibration_hits: u64,
    /// Always 0, like [`ServeStats::calibration_hits`].
    pub calibration_fallbacks: u64,
}

/// The text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|message| message.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "no message".to_string())
}

type Runner = Box<dyn Fn(&SimRequest) -> Result<SimReport, EngineError> + Send + Sync>;

/// What one submission resolves to: the report and how it was served, or
/// the engine's error.
pub type Outcome = Result<(SimReport, Served), EngineError>;

/// The simulation service: an [`Engine`] behind a content-addressed report
/// cache, an in-flight dedup map and a worker pool.
///
/// The service is `Sync`: share one per process (typically behind an
/// [`Arc`], which [`SimService::run_batch`] and the wire protocol require)
/// and submit from any thread.
pub struct SimService {
    engine: Engine,
    cache: ReportCache,
    pending: PendingMap,
    pool: WorkerPool,
    families: FamilyRegistry,
    runner: Option<Runner>,
    exact_budget: Option<u64>,
    /// Memoised budget verdicts, keyed by the request's canonical hash:
    /// whether the kernel exceeds [`ServeConfig::exact_budget`].  The
    /// verdict is pure in the kernel (and the budget is fixed per
    /// service), so repeat submissions of an oversized kernel skip the
    /// build + probe entirely.
    budget_verdicts: Mutex<HashMap<u128, bool>>,
    requests: AtomicU64,
    simulated: AtomicU64,
    errors: AtomicU64,
    rejected: AtomicU64,
    degraded: AtomicU64,
}

impl SimService {
    /// A service over a default [`Engine`].
    pub fn new(config: ServeConfig) -> Self {
        SimService::with_engine(Engine::new(), config)
    }

    /// A service over a caller-configured engine.
    pub fn with_engine(engine: Engine, config: ServeConfig) -> Self {
        SimService {
            engine,
            cache: ReportCache::new(config.cache_capacity),
            pending: PendingMap::new(),
            pool: WorkerPool::new(config.workers),
            families: FamilyRegistry::new(),
            runner: None,
            exact_budget: config.exact_budget,
            budget_verdicts: Mutex::new(HashMap::new()),
            requests: AtomicU64::new(0),
            simulated: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
        }
    }

    /// Replaces the engine call with an arbitrary runner.  This is the
    /// instrumentation seam: tests use it to count or gate simulations
    /// deterministically (e.g. holding the leader until a known number of
    /// followers have coalesced); embedders could use it to delegate to a
    /// remote simulator.  Caching, dedup and scheduling behave exactly as
    /// with the real engine.
    pub fn with_runner(
        mut self,
        runner: impl Fn(&SimRequest) -> Result<SimReport, EngineError> + Send + Sync + 'static,
    ) -> Self {
        self.runner = Some(Box::new(runner));
        self
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Serves one request: cache hit, coalesced wait, or a fresh
    /// simulation whose report is cached for the next identical request.
    ///
    /// # Errors
    ///
    /// Whatever the engine reports ([`EngineError`]), or
    /// [`EngineError::Panicked`] when the submission panicked; errors are
    /// published to coalesced followers but never cached, so a transiently
    /// failing request is retried on its next submission.
    pub fn submit(&self, request: &SimRequest) -> Outcome {
        self.submit_queued(request, None)
    }

    /// [`SimService::submit`] with the scheduler-measured queue latency of
    /// the request, which is stamped into the report (and therefore into
    /// the cache) when this submission ends up simulating.
    ///
    /// This is the service's one panic boundary: a panic anywhere in the
    /// submission, the runner or engine call included, becomes an
    /// [`EngineError::Panicked`] outcome.  Leadership of an in-flight key
    /// is held out here, so a leader whose simulation panicked publishes
    /// that same error to its followers.
    pub fn submit_queued(&self, request: &SimRequest, queue_ns: Option<u64>) -> Outcome {
        self.requests.fetch_add(1, Ordering::SeqCst);
        let mut leader = None;
        let caught = catch_unwind(AssertUnwindSafe(|| self.resolve(request, &mut leader)));
        let panicked = caught.is_err();
        let mut outcome =
            caught.unwrap_or_else(|payload| Err(EngineError::Panicked(panic_message(&*payload))));
        let Some((token, key)) = leader else {
            // A cache hit, a coalesced wait, or a panic before simulating.
            if panicked {
                self.errors.fetch_add(1, Ordering::SeqCst);
            }
            return outcome;
        };
        match &mut outcome {
            Ok((report, _)) => {
                if queue_ns.is_some() {
                    report.queue_ns = queue_ns;
                }
                self.simulated.fetch_add(1, Ordering::SeqCst);
                self.cache.insert(key, report.clone());
            }
            Err(_) => {
                self.errors.fetch_add(1, Ordering::SeqCst);
            }
        }
        self.pending
            .complete(token, outcome.clone().map(|(report, _)| report));
        outcome
    }

    /// Answers a request from the cache or an identical in-flight
    /// simulation, or leads its simulation: then `leader` holds the
    /// in-flight token and the cache address before the simulation runs,
    /// and [`SimService::submit_queued`] caches and publishes the result.
    fn resolve(&self, request: &SimRequest, leader: &mut Option<(LeaderToken, u128)>) -> Outcome {
        let degraded = self.degrade(request);
        let request = match &degraded {
            Some(rewritten) => {
                self.degraded.fetch_add(1, Ordering::SeqCst);
                rewritten
            }
            None => request,
        };
        let (key, family) = self.address(request);
        // Fast path: one shard-local read lock.
        if let Some(report) = self.cache.get(key) {
            if let Some(entry) = &family {
                entry.count_hit();
            }
            return Ok((report, Served::CacheHit));
        }
        match self.pending.claim(key) {
            Claim::Follower(follower) => follower.wait().map(|report| (report, Served::Coalesced)),
            Claim::Leader(token) => {
                // The leader that raced us may have published + cached
                // between our probe and our claim: then this submission
                // is a cache hit after all, and its miss becomes one.
                if let Some(report) = self.cache.reprobe(key) {
                    if let Some(entry) = &family {
                        entry.count_hit();
                    }
                    self.pending.complete(token, Ok(report.clone()));
                    return Ok((report, Served::CacheHit));
                }
                *leader = Some((token, key));
                let report = match &self.runner {
                    Some(runner) => runner(request),
                    None => self.engine.run(request),
                }?;
                Ok((report, Served::Simulated))
            }
        }
    }

    /// Applies the exact-simulation budget ([`ServeConfig::exact_budget`]):
    /// an exact simulation request whose kernel exceeds the budgeted access
    /// count is rewritten onto [`Backend::Sampled`] with the default
    /// options.  Returns the rewritten request, or `None` when the request
    /// should run as submitted.
    ///
    /// The rewrite happens *before* the request is resolved to its cache
    /// address, so a degraded report lives under the sampled request's
    /// canonical hash: it can never overwrite — or be confused with — a
    /// cached exact report for the same kernel.  Only the simulating exact
    /// backends are degraded; the analytical backends are already cheap,
    /// and an explicitly sampled request keeps the options it asked for.
    ///
    /// The verdict is [`scop::exceeds_access_count`]: closed form for
    /// rectangular domains, a walk that stops once the budget is crossed
    /// otherwise.  It is memoised per canonical hash, so repeat
    /// submissions of the same kernel — the common case behind the report
    /// cache — skip even the build.
    fn degrade(&self, request: &SimRequest) -> Option<SimRequest> {
        let budget = self.exact_budget?;
        if !matches!(
            request.backend,
            Backend::Classic | Backend::Warping | Backend::Trace
        ) {
            return None;
        }
        let key = request.canonical_hash().as_u128();
        let memoised = self
            .budget_verdicts
            .lock()
            .expect("verdict map not poisoned")
            .get(&key)
            .copied();
        let over = match memoised {
            Some(over) => over,
            None => {
                // A kernel that fails to build is left to the engine,
                // which owns the error message (and is not memoised: the
                // verdict map only records real verdicts).
                let scop = request.kernel.build().ok()?;
                let over = scop::exceeds_access_count(&scop, budget);
                self.budget_verdicts
                    .lock()
                    .expect("verdict map not poisoned")
                    .insert(key, over);
                over
            }
        };
        if !over {
            return None;
        }
        let mut rewritten = request.clone();
        rewritten.backend = Backend::Sampled(SamplingOptions::DEFAULT);
        Some(rewritten)
    }

    /// Resolves a request to its cache address, routing parametric kernels
    /// through the family tier: the family is auto-registered on first
    /// sight, and the canonical instance address of every `(config,
    /// bindings)` pair is memoised, so repeat exploration submissions skip
    /// substitution and canonicalisation (the expensive half of
    /// [`SimRequest::canonical_hash`]) and go straight to the report cache.
    fn address(&self, request: &SimRequest) -> (u128, Option<Arc<FamilyEntry>>) {
        let (Some(family), KernelSpec::Parametric { name, code, .. }) =
            (request.family_hash(), &request.kernel)
        else {
            return (request.canonical_hash().as_u128(), None);
        };
        let params = scop::ParametricScop::cached(code)
            .map(|template| template.params().to_vec())
            .unwrap_or_default();
        let (entry, _) = self.families.ensure(family.as_u128(), name, code, &params);
        entry.count_request();
        let instance_key = format!(
            "{}|{}",
            request.config_text(),
            request.kernel.param_bindings().key()
        );
        let key = match entry.instance(&instance_key) {
            Some(hash) => hash,
            None => {
                let hash = request.canonical_hash().as_u128();
                entry.record_instance(instance_key, hash);
                hash
            }
        };
        (key, Some(entry))
    }

    /// Registers a parametric kernel family ahead of time, so later
    /// submissions can reference it by its 128-bit family address plus a
    /// bindings object ([`SimService::family_kernel`]) instead of
    /// re-sending the template source on every request line.
    ///
    /// Registration is idempotent: re-registering the same family (under
    /// any α-renaming of its parameters, arrays and iterators) returns the
    /// same address and keeps the existing counters.
    ///
    /// # Errors
    ///
    /// If the template does not parse, or declares no parameters (a
    /// constant kernel is an instance, not a family — submit it as a plain
    /// `source` request).
    pub fn register_family(&self, name: &str, code: &str) -> Result<FamilyStats, String> {
        let template = scop::ParametricScop::cached(code)
            .map_err(|e| format!("family `{name}` failed to parse: {e}"))?;
        if template.params().is_empty() {
            return Err(format!(
                "family `{name}` declares no parameters; submit it as a plain `source` kernel"
            ));
        }
        let kernel = KernelSpec::parametric(name, code, [] as [(String, i64); 0]);
        let family = kernel
            .family_hash()
            .expect("parametric kernels always have a family address");
        self.families
            .ensure(family.as_u128(), name, code, template.params());
        let stats = self
            .families
            .snapshot()
            .into_iter()
            .find(|stats| stats.family == family.to_string())
            .expect("the family was just registered");
        Ok(stats)
    }

    /// Builds the kernel spec for a request that references a registered
    /// family by hex address plus bindings (the wire protocol's
    /// `{"family": …, "bindings": {…}}` form).
    ///
    /// # Errors
    ///
    /// If the address is not valid hex or names no registered family.
    pub fn family_kernel(
        &self,
        family: &str,
        bindings: &[(String, i64)],
    ) -> Result<KernelSpec, String> {
        let raw = u128::from_str_radix(family, 16)
            .map_err(|_| format!("`{family}` is not a 128-bit hex family address"))?;
        let entry = self.families.get(raw).ok_or_else(|| {
            format!(
                "unknown family `{family}`; register it first with \
                 {{\"cmd\": \"register_family\", \"name\": …, \"code\": …}}"
            )
        })?;
        Ok(KernelSpec::parametric(
            entry.name(),
            entry.code(),
            bindings.iter().cloned(),
        ))
    }

    /// Per-family counters (requests, report-cache hits, distinct
    /// instances), sorted by family address.
    pub fn family_stats(&self) -> Vec<FamilyStats> {
        self.families.snapshot()
    }

    /// Serves a batch through the worker pool: requests are queued in
    /// input order, identical requests within the batch dedup/cache
    /// exactly like wire submissions, and every simulated report carries
    /// its measured queue latency ([`SimReport::queue_ns`](engine::SimReport)).
    ///
    /// Results come back in input order, like
    /// [`Engine::run_batch`](engine::Engine::run_batch).
    pub fn run_batch(self: &Arc<Self>, requests: &[SimRequest]) -> Vec<Outcome> {
        let (tx, rx) = mpsc::channel();
        for (index, request) in requests.iter().enumerate() {
            let (service, request, tx) = (self.clone(), request.clone(), tx.clone());
            let enqueued = Instant::now();
            self.pool.spawn(move || {
                let queue_ns = enqueued.elapsed().as_nanos() as u64;
                let outcome = service.submit_queued(&request, Some(queue_ns));
                // Released first, so no job holds the service once the
                // batch has returned.
                drop(service);
                let _ = tx.send((index, outcome));
            });
        }
        drop(tx);
        let mut slots: Vec<Option<Outcome>> = requests.iter().map(|_| None).collect();
        for (index, outcome) in rx {
            slots[index] = Some(outcome);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every batch job sends its outcome"))
            .collect()
    }

    /// The scheduling pool (used by the wire protocol to run line jobs).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServeStats {
        let cache = self.cache.counters();
        let (family_requests, family_hits) = self.families.totals();
        ServeStats {
            requests: self.requests.load(Ordering::SeqCst),
            simulated: self.simulated.load(Ordering::SeqCst),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            coalesced: self.pending.coalesced(),
            evictions: cache.evictions,
            cache_entries: cache.entries,
            cache_capacity: cache.capacity,
            errors: self.errors.load(Ordering::SeqCst),
            rejected: self.rejected.load(Ordering::SeqCst),
            degraded: self.degraded.load(Ordering::SeqCst),
            workers: self.pool.workers() as u64,
            families: self.families.len(),
            family_requests,
            family_hits,
            calibration_hits: 0,
            calibration_fallbacks: 0,
        }
    }
}
