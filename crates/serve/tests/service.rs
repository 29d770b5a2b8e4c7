//! End-to-end service behaviour: thundering-herd coalescing, cache-hit
//! bit-identity under α-renaming, batch scheduling through the worker
//! pool, and panicking simulations answered as errors.

use cache_model::{CacheConfig, MemoryConfig, ReplacementPolicy};
use engine::{Backend, Engine, KernelSpec, SimRequest};
use serve::{ServeConfig, Served, SimService};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

fn memory() -> MemoryConfig {
    MemoryConfig::single(CacheConfig::with_sets(4, 8, 64, ReplacementPolicy::Lru))
}

fn request(code: &str) -> SimRequest {
    SimRequest::new(KernelSpec::source("k", code), memory(), Backend::warping())
}

const KERNEL: &str = "double A[64]; for (i = 0; i < 64; i++) A[i] = A[i - 1] + A[i];";
/// `KERNEL` under α-renaming: different array, iterator and whitespace-free
/// bound spelling, same simulation.
const KERNEL_RENAMED: &str =
    "double buf[64]; for (t = 0; t <= 63; t++) buf[t] = buf[t - 1] + buf[t];";

/// A thundering herd of N identical submissions costs one simulation: the
/// leader's runner is gated until every follower has coalesced, so the test
/// is deterministic, not racy.
#[test]
fn thundering_herd_coalesces_onto_one_simulation() {
    const HERD: usize = 8;
    let runs = Arc::new(AtomicUsize::new(0));
    let release = Arc::new(AtomicBool::new(false));
    let service = {
        let runs = runs.clone();
        let release = release.clone();
        Arc::new(
            SimService::new(ServeConfig {
                workers: 2,
                cache_capacity: 16,
                exact_budget: None,
                warm_paths: true,
            })
            .with_runner(move |request| {
                runs.fetch_add(1, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    thread::yield_now();
                }
                Engine::new().run(request)
            }),
        )
    };

    let submitters: Vec<_> = (0..HERD)
        .map(|_| {
            let service = service.clone();
            thread::spawn(move || service.submit(&request(KERNEL)).expect("herd is served"))
        })
        .collect();
    // Followers count themselves before they park, so once HERD-1 have
    // coalesced the leader (already inside the gated runner) is the only
    // submission that will ever simulate.
    while service.stats().coalesced < (HERD - 1) as u64 {
        thread::yield_now();
    }
    release.store(true, Ordering::SeqCst);

    let outcomes: Vec<_> = submitters
        .into_iter()
        .map(|handle| handle.join().expect("submitter thread"))
        .collect();
    assert_eq!(
        runs.load(Ordering::SeqCst),
        1,
        "one simulation for the herd"
    );
    let simulated = outcomes
        .iter()
        .filter(|(_, how)| *how == Served::Simulated)
        .count();
    let coalesced = outcomes
        .iter()
        .filter(|(_, how)| *how == Served::Coalesced)
        .count();
    assert_eq!((simulated, coalesced), (1, HERD - 1));
    let reference = outcomes[0].0.to_json();
    for (report, _) in &outcomes {
        assert_eq!(
            report.to_json(),
            reference,
            "herd reports are bit-identical"
        );
    }
    let stats = service.stats();
    assert_eq!(stats.requests, HERD as u64);
    assert_eq!(stats.simulated, 1);
    assert_eq!(stats.coalesced, (HERD - 1) as u64);
}

/// An α-renamed resubmission is a cache hit and its report is byte-for-byte
/// the cold report (cached timing fields included).
#[test]
fn renamed_resubmission_hits_the_cache_bit_identically() {
    let service = SimService::new(ServeConfig {
        workers: 1,
        cache_capacity: 8,
        exact_budget: None,
        warm_paths: true,
    });
    let (cold, how) = service.submit(&request(KERNEL)).expect("cold run succeeds");
    assert_eq!(how, Served::Simulated);
    let (warm, how) = service
        .submit(&request(KERNEL_RENAMED))
        .expect("warm run succeeds");
    assert_eq!(how, Served::CacheHit);
    assert_eq!(warm.to_json(), cold.to_json());
    let stats = service.stats();
    assert_eq!((stats.simulated, stats.cache_hits), (1, 1));
}

/// Errors are reported but never cached: a failing request is retried on
/// its next submission.
#[test]
fn errors_are_not_cached() {
    let attempts = Arc::new(AtomicUsize::new(0));
    let service = {
        let attempts = attempts.clone();
        SimService::new(ServeConfig {
            workers: 1,
            cache_capacity: 8,
            exact_budget: None,
            warm_paths: true,
        })
        .with_runner(move |request| {
            if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                Err(engine::EngineError::InvalidOptions("transient".to_string()))
            } else {
                Engine::new().run(request)
            }
        })
    };
    assert!(service.submit(&request(KERNEL)).is_err());
    let (_, how) = service.submit(&request(KERNEL)).expect("retry succeeds");
    assert_eq!(how, Served::Simulated, "the error was not cached");
    assert_eq!(attempts.load(Ordering::SeqCst), 2);
    assert_eq!(service.stats().errors, 1);
}

/// `run_batch` returns results in input order, dedups duplicates within the
/// batch, and stamps the measured queue latency into simulated reports.
#[test]
fn batch_results_are_ordered_deduped_and_queue_stamped() {
    let service = Arc::new(SimService::new(ServeConfig {
        workers: 4,
        cache_capacity: 32,
        exact_budget: None,
        warm_paths: true,
    }));
    let distinct = [
        "double A[16]; for (i = 0; i < 16; i++) A[i] = A[i];",
        "double A[32]; for (i = 0; i < 32; i++) A[i] = A[i];",
        "double A[48]; for (i = 0; i < 48; i++) A[i] = A[i];",
        "double A[64]; for (i = 0; i < 64; i++) A[i] = A[i];",
    ];
    // 16 requests over 4 distinct kernels, duplicates interleaved.
    let requests: Vec<SimRequest> = (0..16).map(|i| request(distinct[i % 4])).collect();
    let outcomes = service.run_batch(&requests);
    assert_eq!(outcomes.len(), requests.len());

    let mut by_kernel = Vec::new();
    for (outcome, request) in outcomes.iter().zip(&requests) {
        let (report, _) = outcome.as_ref().expect("batch request served");
        // Input order: each slot's report answers its own request.
        assert_eq!(
            report.result.accesses,
            2 * expected_extent(request),
            "slot answers its own kernel"
        );
        assert!(
            report.queue_ns.is_some(),
            "batch reports carry queue latency"
        );
        by_kernel.push(report.to_json());
    }
    // Duplicates got bit-identical reports.
    for i in 0..16 {
        assert_eq!(by_kernel[i], by_kernel[i % 4]);
    }
    let stats = service.stats();
    assert_eq!(stats.requests, 16);
    assert_eq!(stats.simulated, 4, "one simulation per distinct kernel");
    assert_eq!(
        stats.cache_hits + stats.coalesced,
        12,
        "every duplicate was deduped or cached"
    );
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        16,
        "hits + misses == first probes"
    );
}

/// A batch whose runner panics on one kernel still returns every slot: the
/// panicked slot is an error carrying the panic text, the others are
/// served.  The batch runs on a helper thread, so a batch that never
/// returns fails the test instead of stalling the suite.
#[test]
fn a_panicking_batch_request_fills_its_slot_with_an_error() {
    let service = Arc::new(
        SimService::new(ServeConfig {
            workers: 2,
            cache_capacity: 16,
            exact_budget: None,
            warm_paths: true,
        })
        .with_runner(|request| match request.kernel.name().as_str() {
            "boom" => panic!("simulator bug"),
            _ => Engine::new().run(request),
        }),
    );
    let boom = SimRequest::new(
        KernelSpec::source("boom", "double B[8]; for (i = 0; i < 8; i++) B[i] = B[i];"),
        memory(),
        Backend::warping(),
    );
    let requests = vec![
        request("double A[16]; for (i = 0; i < 16; i++) A[i] = A[i];"),
        boom,
        request("double A[32]; for (i = 0; i < 32; i++) A[i] = A[i];"),
    ];
    let (tx, rx) = mpsc::channel();
    let batch_service = service.clone();
    thread::spawn(move || {
        let _ = tx.send(batch_service.run_batch(&requests));
    });
    let outcomes = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("run_batch returns although one of its jobs panicked");
    assert_eq!(outcomes.len(), 3);
    let error = outcomes[1]
        .as_ref()
        .expect_err("the panicked slot is an error")
        .to_string();
    assert!(error.contains("simulator bug"), "{error}");
    for slot in [0, 2] {
        let (_, how) = outcomes[slot].as_ref().expect("the other slots are served");
        assert_eq!(*how, Served::Simulated);
    }
    assert_eq!(service.stats().errors, 1);
}

/// A follower coalesced onto a leader whose simulation panics receives the
/// leader's error, panic text included.  The leader is gated until the
/// follower has coalesced, as in the thundering-herd test.
#[test]
fn a_coalesced_follower_gets_its_panicking_leaders_error() {
    let release = Arc::new(AtomicBool::new(false));
    let service = {
        let release = release.clone();
        Arc::new(
            SimService::new(ServeConfig {
                workers: 1,
                cache_capacity: 8,
                exact_budget: None,
                warm_paths: true,
            })
            .with_runner(move |_| {
                while !release.load(Ordering::SeqCst) {
                    thread::yield_now();
                }
                panic!("simulator bug")
            }),
        )
    };
    let submitters: Vec<_> = (0..2)
        .map(|_| {
            let service = service.clone();
            thread::spawn(move || service.submit(&request(KERNEL)))
        })
        .collect();
    while service.stats().coalesced < 1 {
        thread::yield_now();
    }
    release.store(true, Ordering::SeqCst);
    let errors: Vec<_> = submitters
        .into_iter()
        .map(|handle| {
            handle
                .join()
                .expect("the panic stays inside the service")
                .expect_err("a panicked simulation is an error")
        })
        .collect();
    assert_eq!(errors[0], errors[1], "the follower gets the leader's error");
    assert!(
        errors[0].to_string().contains("simulator bug"),
        "{}",
        errors[0]
    );
    let stats = service.stats();
    assert_eq!((stats.coalesced, stats.errors), (1, 1));
    assert_eq!(stats.cache_entries, 0, "errors are never cached");
}

/// The loop extent encoded in the bodies of
/// [`batch_results_are_ordered_deduped_and_queue_stamped`]'s kernels.
fn expected_extent(request: &SimRequest) -> u64 {
    match &request.kernel {
        KernelSpec::Source { code, .. } => {
            let marker = "i < ";
            let start = code.find(marker).expect("kernel has a bound") + marker.len();
            code[start..]
                .split(';')
                .next()
                .expect("bound ends")
                .trim()
                .parse()
                .expect("numeric bound")
        }
        _ => unreachable!("batch test uses source kernels"),
    }
}

/// The family tier: parametric submissions are auto-registered, repeat
/// `(bindings, config)` instances memoise their canonical address, and a
/// parametric instance shares its report — byte for byte — with the
/// hand-written constant kernel it denotes.
#[test]
fn family_tier_memoises_instances_and_shares_reports() {
    let template = "param N, T;\n\
        double A[N];\n\
        for (ii = 0; ii < N; ii += T)\n\
            for (i = ii; i < ii + T; i++)\n\
                if (i < N) A[i] = A[i - 1] + A[i];";
    let service = SimService::new(ServeConfig {
        workers: 1,
        cache_capacity: 32,
        exact_budget: None,
        warm_paths: true,
    });
    let parametric = |n: i64, t: i64| {
        SimRequest::new(
            KernelSpec::parametric("tiled", template, [("N", n), ("T", t)]),
            memory(),
            Backend::warping(),
        )
    };

    // Cold: simulated, family auto-registered.
    let (cold, how) = service.submit(&parametric(64, 8)).expect("cold instance");
    assert_eq!(how, Served::Simulated);
    // Same instance again: a family-tier report-cache hit.
    let (warm, how) = service.submit(&parametric(64, 8)).expect("warm instance");
    assert_eq!(how, Served::CacheHit);
    assert_eq!(warm.to_json(), cold.to_json());
    // A different binding is a different instance (fresh simulation).
    let (_, how) = service.submit(&parametric(64, 16)).expect("new instance");
    assert_eq!(how, Served::Simulated);

    // The hand-written constant kernel hits the parametric instance's
    // cached report.
    let constant = request(
        "double A[64];\n\
         for (ii = 0; ii < 64; ii += 8)\n\
             for (i = ii; i < ii + 8; i++)\n\
                 if (i < 64) A[i] = A[i - 1] + A[i];",
    );
    let (from_cache, how) = service.submit(&constant).expect("constant spelling");
    assert_eq!(how, Served::CacheHit);
    assert_eq!(from_cache.result, cold.result);

    let stats = service.stats();
    assert_eq!(stats.families, 1);
    assert_eq!(stats.family_requests, 3);
    assert_eq!(stats.family_hits, 1, "the repeat instance hit via the memo");
    let families = service.family_stats();
    assert_eq!(families.len(), 1);
    assert_eq!(families[0].name, "tiled");
    assert_eq!(families[0].params, vec!["N".to_string(), "T".to_string()]);
    assert_eq!(families[0].instances, 2);
}

/// Explicit registration is idempotent across α-renamings and rejects
/// degenerate templates with actionable errors.
#[test]
fn family_registration_is_idempotent_and_validated() {
    let service = SimService::new(ServeConfig {
        workers: 1,
        cache_capacity: 8,
        exact_budget: None,
        warm_paths: true,
    });
    let a = service
        .register_family(
            "scan",
            "param N; double A[N]; for (i = 0; i < N; i++) A[i] = A[i];",
        )
        .expect("valid family");
    let b = service
        .register_family(
            "scan-renamed",
            "param M; double buf[M]; for (t = 0; t < M; t++) buf[t] = buf[t];",
        )
        .expect("renamed family");
    assert_eq!(a.family, b.family, "α-renaming does not fork the family");
    assert_eq!(service.stats().families, 1);

    let err = service
        .register_family("broken", "param N; double A[N; for (i")
        .expect_err("parse errors surface");
    assert!(err.contains("failed to parse"), "{err}");
    let err = service
        .register_family(
            "constant",
            "double A[8]; for (i = 0; i < 8; i++) A[i] = A[i];",
        )
        .expect_err("parameterless templates are instances");
    assert!(err.contains("declares no parameters"), "{err}");
}

/// `ServeConfig::validate` rejects the degenerate server configurations the
/// CLI would otherwise silently clamp.
#[test]
fn degenerate_serve_configs_are_rejected_with_clear_errors() {
    let err = ServeConfig {
        workers: 0,
        cache_capacity: 64,
        exact_budget: None,
        warm_paths: true,
    }
    .validate()
    .expect_err("zero workers is a misconfiguration");
    assert!(err.contains("workers"), "{err}");
    let err = ServeConfig {
        workers: 2,
        cache_capacity: 0,
        exact_budget: None,
        warm_paths: true,
    }
    .validate()
    .expect_err("zero cache capacity is a misconfiguration");
    assert!(err.contains("cache capacity"), "{err}");
    let err = ServeConfig {
        workers: 2,
        cache_capacity: 64,
        exact_budget: Some(0),
        warm_paths: true,
    }
    .validate()
    .expect_err("a zero access budget would degrade everything");
    assert!(err.contains("exact budget"), "{err}");
    assert!(ServeConfig::default().validate().is_ok());
}

/// Degraded mode: with an exact-simulation budget set, an oversized exact
/// request is rewritten onto the sampling backend, its report is cached
/// under the *sampled* request's canonical address (never the exact one),
/// and requests within the budget run exactly as asked.
#[test]
fn exact_budget_degrades_oversized_requests_onto_sampling() {
    let big = "double A[4096]; for (i = 0; i < 4096; i++) A[i] = A[i];";
    let small = "double A[32]; for (i = 0; i < 32; i++) A[i] = A[i];";
    let service = SimService::new(ServeConfig {
        workers: 1,
        cache_capacity: 16,
        exact_budget: Some(1000),
        warm_paths: true,
    });

    // 8192 dynamic accesses blow the 1000-access budget: the classic
    // request comes back from the sampling backend, approximation stats
    // attached.
    let classic_big = SimRequest::new(KernelSpec::source("big", big), memory(), Backend::Classic);
    let (report, how) = service.submit(&classic_big).expect("degraded run succeeds");
    assert_eq!(how, Served::Simulated);
    assert_eq!(report.backend, "sampled", "the request was degraded");
    let approx = report
        .approx
        .as_ref()
        .expect("degraded reports carry approx stats");
    assert!(approx.sampled_fraction < 1.0, "something was extrapolated");
    assert_eq!(service.stats().degraded, 1);

    // The degraded report lives at the sampled request's cache address: an
    // explicitly sampled submission of the same kernel is a cache hit...
    let sampled_big = SimRequest::new(KernelSpec::source("big", big), memory(), Backend::sampled());
    let (warm, how) = service.submit(&sampled_big).expect("sampled run succeeds");
    assert_eq!(how, Served::CacheHit);
    assert_eq!(warm.to_json(), report.to_json());
    // ...which is only sound because the degraded address can never collide
    // with the exact request's own address.
    assert_ne!(
        classic_big.canonical_hash(),
        sampled_big.canonical_hash(),
        "a degraded report must never shadow a cached exact report"
    );

    // A kernel within the budget is served exactly as submitted.
    let classic_small = SimRequest::new(
        KernelSpec::source("small", small),
        memory(),
        Backend::Classic,
    );
    let (report, _) = service.submit(&classic_small).expect("exact run succeeds");
    assert_eq!(report.backend, "classic");
    assert!(report.approx.is_none());
    assert_eq!(
        service.stats().degraded,
        1,
        "the small kernel was not degraded"
    );

    // Analytical backends are already cheap and are never degraded.
    let haystack_big = SimRequest::new(
        KernelSpec::source("big", big),
        MemoryConfig::single(CacheConfig::fully_associative(
            64,
            8,
            ReplacementPolicy::Lru,
        )),
        Backend::Haystack,
    );
    let (report, _) = service
        .submit(&haystack_big)
        .expect("analytical run succeeds");
    assert_eq!(report.backend, "haystack");
    assert_eq!(service.stats().degraded, 1);
}

/// The cross-instance warm path: a sweep of a parametric family donates
/// each sampled instance's calibration to the next, every point after the
/// first per coordinate is a calibration hit, and exact backends never
/// consult the calibration cache.
#[test]
fn family_sweeps_reuse_warm_state_soundly() {
    const FAMILY: &str = "param N, T;\n\
        double A[N]; double B[N];\n\
        for (ii = 0; ii < N; ii += T)\n\
            for (i = ii; i < ii + T; i++)\n\
                if (i < N) B[i] = A[i] + B[i];";
    let config = |warm_paths| ServeConfig {
        workers: 1,
        cache_capacity: 64,
        exact_budget: None,
        warm_paths,
    };
    let warm = SimService::new(config(true));
    let cold = SimService::new(config(false));
    let tiles = [8i64, 16, 24, 32];
    let requests: Vec<SimRequest> = tiles
        .iter()
        .map(|&t| {
            SimRequest::new(
                KernelSpec::parametric("tiled", FAMILY, [("N", 4096), ("T", t)]),
                memory(),
                Backend::sampled(),
            )
        })
        .collect();
    for request in &requests {
        let (warm_report, how) = warm.submit(request).expect("warm run succeeds");
        assert_eq!(how, Served::Simulated);
        let (cold_report, _) = cold.submit(request).expect("cold run succeeds");
        // Sampled counts may differ between seeded and cold schedules,
        // but both must stay within their own reported bounds of the
        // exact counts.
        let exact = Engine::new()
            .run(&SimRequest::new(
                request.kernel.clone(),
                request.memory.clone(),
                Backend::Classic,
            ))
            .expect("exact run succeeds");
        for (report, label) in [(&warm_report, "warm"), (&cold_report, "cold")] {
            let approx = report
                .approx
                .as_ref()
                .expect("sampled reports carry approx");
            for (level, bound) in approx.per_level_error_bound.iter().enumerate() {
                let err = exact.result.levels[level]
                    .misses
                    .abs_diff(report.result.levels[level].misses);
                assert!(err <= *bound, "{label} level {level}: {err} > {bound}");
            }
        }
    }
    let stats = warm.stats();
    assert_eq!(stats.calibration_misses, 1, "only the first point is cold");
    assert_eq!(
        stats.calibration_hits,
        tiles.len() as u64 - 1,
        "every later point seeds from its predecessor"
    );
    assert_eq!(cold.stats().calibration_hits, 0);
    assert_eq!(cold.stats().calibration_misses, 0);

    // Exact backends: bit-identical to a cold service, and no slot.
    for &t in &tiles {
        let request = SimRequest::new(
            KernelSpec::parametric("tiled", FAMILY, [("N", 4096), ("T", t)]),
            memory(),
            Backend::warping(),
        );
        let (warm_report, _) = warm.submit(&request).expect("warm run succeeds");
        let (cold_report, _) = cold.submit(&request).expect("cold run succeeds");
        assert_eq!(warm_report.result, cold_report.result, "T={t}");
    }
    assert_eq!(warm.stats().calibration_misses, 1);
    let slots = warm.calibration_stats();
    assert_eq!(slots.len(), 1, "only the sampled coordinate has a slot");
}

/// Satellite: warm state is keyed by the full memory × backend coordinate,
/// so changing the hierarchy or the replacement policy can never leak a
/// calibration across configurations.
#[test]
fn calibration_cache_invalidates_on_hierarchy_or_policy_change() {
    let service = SimService::new(ServeConfig {
        workers: 1,
        cache_capacity: 64,
        exact_budget: None,
        warm_paths: true,
    });
    const FAMILY: &str = "param N; double A[N]; for (i = 0; i < N; i++) A[i] = A[i - 1] + A[i];";
    let lru = MemoryConfig::single(CacheConfig::with_sets(4, 8, 64, ReplacementPolicy::Lru));
    let plru = MemoryConfig::single(CacheConfig::with_sets(4, 8, 64, ReplacementPolicy::Plru));
    let two_level = MemoryConfig::new(vec![
        CacheConfig::with_sets(4, 8, 64, ReplacementPolicy::Lru),
        CacheConfig::with_sets(32, 8, 64, ReplacementPolicy::Lru),
    ])
    .unwrap();
    let submit = |memory: &MemoryConfig, n: i64| {
        let request = SimRequest::new(
            KernelSpec::parametric("scan", FAMILY, [("N", n)]),
            memory.clone(),
            Backend::sampled(),
        );
        service.submit(&request).expect("run succeeds")
    };
    submit(&lru, 60_000);
    // Same policy, neighbouring binding: a hit.
    submit(&lru, 61_000);
    assert_eq!(service.stats().calibration_hits, 1);
    // New policy and new hierarchy: both must calibrate cold (a fresh
    // slot each), not reuse the LRU calibration.
    submit(&plru, 60_000);
    submit(&two_level, 60_000);
    let stats = service.stats();
    assert_eq!(stats.calibration_hits, 1, "no cross-coordinate reuse");
    assert_eq!(stats.calibration_misses, 3);
    assert_eq!(service.calibration_stats().len(), 3);
}

/// The caller drops its handle while a job on the service's own pool still
/// holds one, so the last handle — and with it the pool — is dropped on the
/// pool's only worker.  The worker must not try to join itself: the job
/// still gets its reply and runs to its end without panicking.
#[test]
fn dropping_the_last_handle_inside_a_job_does_not_panic() {
    let service = Arc::new(SimService::with_engine(
        Engine::new().with_threads(1),
        ServeConfig {
            workers: 1,
            cache_capacity: 16,
            exact_budget: None,
            warm_paths: true,
        },
    ));
    let (released_tx, released_rx) = std::sync::mpsc::channel::<()>();
    let (reply_tx, reply_rx) = std::sync::mpsc::channel();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let held = Arc::clone(&service);
    service.pool().spawn(move || {
        released_rx.recv().expect("the caller lets go first");
        reply_tx
            .send(held.submit(&request(KERNEL)))
            .expect("test alive");
        // The last handle: the service and its pool are dropped right here,
        // on the pool's worker.
        drop(held);
        done_tx.send(()).expect("test alive");
    });
    drop(service);
    released_tx.send(()).expect("job waiting");
    let timeout = std::time::Duration::from_secs(30);
    let (report, served) = reply_rx
        .recv_timeout(timeout)
        .expect("the reply arrives")
        .expect("the request is served");
    assert_eq!(served, Served::Simulated);
    assert!(report.result.accesses > 0);
    done_rx
        .recv_timeout(timeout)
        .expect("dropping the service on its own worker must not panic");
}
