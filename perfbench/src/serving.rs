//! The `serve-family` workload: tiled-gemm family instances, their
//! α-renamed constant twins and sampled PolyBench kernels through a
//! `SimService` with one worker.
//!
//! Every phase runs on a *fresh* service (a pre-warmed report cache would
//! turn every request into a hit):
//!
//! * warm-up, untimed: a few cells of every kind, to pay page faults and
//!   the `ParametricScop::cached` memo;
//! * saturated passes: the whole request list of the first segment queued
//!   at once, so the queue never empties — `throughput_rps` and
//!   `ns_per_access`;
//! * open-loop segments: the generator (the main thread) spawns each
//!   request onto the pool at its seeded due time, at a fixed rate well
//!   below throughput — latencies are measured from the due time.
//!
//! Passes are spread between the segments, so both sample the whole run.
//! Reference samples run on the worker before every request of a pass and,
//! in the open loop, whenever the worker is idle; set-ups take theirs on the main
//! thread.  Each time is scaled to the nominal host speed by the samples
//! of the thread it was measured on (see `host.rs`).

use crate::gen::{self, Cell, Workload};
use crate::host::{self, HostSpeed};
use crate::layers::{self, Layers, Probe};
use crate::stats::{self, min_samples_for};
use crate::trace::Tracer;
use crate::{metric, pinned_engine, Checker, RunResult, SETUP_REPS};
use engine::{Backend, SimRequest};
use serve::{Outcome, ServeConfig, ServeStats, Served, SimService, WireOptions};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Offered load of the open loop, in requests per second.
pub const RATE: f64 = 10.0;
/// Share of requests that repeat an earlier cell of their segment: well
/// below ½, so the median request is a cold simulation.
pub const REPEAT_SHARE: f64 = 0.3;
/// Saturated passes per run (they take about a quarter of the open loop's
/// time on top of it).
pub const SATURATED_PASSES: usize = 3;
/// Saturated passes of a traced run: traced and untraced alternate, so the
/// tracing overhead compares two passes of each.
const TRACED_RUN_PASSES: usize = 4;
/// Reference samples queued in one idle gap of the open loop.
const IDLE_SAMPLES: usize = 4;
/// Idle-gap samples are queued only while the next request is due later
/// than this, so they cannot delay it.
const IDLE_MARGIN: Duration = Duration::from_millis(5);
/// Warm-up cells per (backend, hierarchy) pair.
const WARM_CELLS_PER_KIND: usize = 2;
/// The generator sleeps until this close to a due time, then spins.
const SPIN: Duration = Duration::from_micros(300);
/// While waiting for a due time, the generator checks this often whether
/// the worker is idle.
const POLL: Duration = Duration::from_millis(1);

fn new_service() -> Arc<SimService> {
    Arc::new(SimService::with_engine(
        pinned_engine(),
        ServeConfig {
            workers: 1,
            cache_capacity: 4096,
            exact_budget: None,
            warm_paths: true,
        },
    ))
}

/// Set-up: build and compile every distinct program, construct the
/// service and register the family.
fn setup(cells: &[Cell], tracer: &Tracer) -> Result<Duration, String> {
    let start = Instant::now();
    layers::setup_programs(cells, tracer)?;
    let service = new_service();
    tracer.span("serve.register_family", None, 0, |_| {
        service.register_family("tiled_gemm", polybench::parametric::TILED_GEMM)
    })?;
    let elapsed = start.elapsed();
    drop(service);
    Ok(elapsed)
}

/// One reply, with the instants that bound it.
struct Reply {
    index: usize,
    outcome: Outcome,
    due: Instant,
    spawned: Instant,
    start: Instant,
    end: Instant,
}

struct Collector {
    replies: Mutex<Vec<Reply>>,
    done: Condvar,
}

impl Collector {
    fn new() -> Arc<Self> {
        Arc::new(Collector {
            replies: Mutex::new(Vec::new()),
            done: Condvar::new(),
        })
    }

    fn len(&self) -> usize {
        self.replies.lock().expect("replies not poisoned").len()
    }

    fn wait_for(&self, n: usize) -> Vec<Reply> {
        let mut replies = self.replies.lock().expect("replies not poisoned");
        while replies.len() < n {
            replies = self.done.wait(replies).expect("replies not poisoned");
        }
        std::mem::take(&mut *replies)
    }
}

/// Queues `n` reference samples on the service's worker, so they measure
/// the speed of the thread that serves the requests.
fn spawn_samples(service: &Arc<SimService>, speed: &Arc<Mutex<HostSpeed>>, n: usize) {
    for _ in 0..n {
        let speed = speed.clone();
        service.pool().spawn(move || {
            let (at, elapsed) = host::reference_sample();
            speed
                .lock()
                .expect("samples not poisoned")
                .record(at, elapsed);
        });
    }
}

/// Queues request `index` on the service's pool.
fn spawn(
    service: &Arc<SimService>,
    requests: &Arc<Vec<SimRequest>>,
    collector: &Arc<Collector>,
    tracer: &Tracer,
    index: usize,
    due: Instant,
) {
    let (job_service, requests, collector, tracer) = (
        service.clone(),
        requests.clone(),
        collector.clone(),
        tracer.clone(),
    );
    let spawned = Instant::now();
    service.pool().spawn(move || {
        let start = Instant::now();
        let outcome = job_service.submit(&requests[index]);
        let end = Instant::now();
        // The caller must hold the last handle: dropping the service here
        // would join this worker from itself.
        drop(job_service);
        let id = index as u64 + 1;
        let request = tracer.record("bench.request", None, id, due, end);
        tracer.record("serve.queue", request, id, due, start);
        tracer.record("serve.submit", request, id, start, end);
        let mut replies = collector.replies.lock().expect("replies not poisoned");
        replies.push(Reply {
            index,
            outcome,
            due,
            spawned,
            start,
            end,
        });
        collector.done.notify_all();
    });
}

/// Checks every reply; returns the accesses simulated (cache hits and
/// coalesced replies simulate nothing).
fn check_replies(
    checker: &mut Checker,
    cells: &[Cell],
    plan: &[gen::ServeRequest],
    replies: &[Reply],
) -> u64 {
    let mut accesses = 0;
    for reply in replies {
        let item = plan[reply.index];
        let outcome = reply.outcome.as_ref().map(|(report, _)| report);
        let Some(report) = checker.check(&cells[item.cell], outcome) else {
            continue;
        };
        if let Ok((_, Served::Simulated)) = &reply.outcome {
            accesses += report.result.accesses;
            if item.twin {
                checker.fail::<()>(format!(
                    "{}: twin did not share the family instance's cache entry",
                    cells[item.cell].golden_key()
                ));
            }
        }
    }
    accesses
}

/// One open-loop segment: a seeded request list for one fresh service.
#[derive(Clone)]
struct Segment {
    plan: Vec<gen::ServeRequest>,
    requests: Arc<Vec<SimRequest>>,
}

impl Segment {
    fn new(seed: u64, index: u64, cells: &[Cell]) -> Self {
        let total = (cells.len() as f64 / (1.0 - REPEAT_SHARE)).ceil() as usize;
        let plan = gen::serve_requests(seed, index, cells, total, RATE);
        let requests = plan
            .iter()
            .map(|r| {
                let cell = &cells[r.cell];
                let kernel = if r.twin {
                    cell.program
                        .twin()
                        .expect("only family instances have twins")
                } else {
                    cell.program.spec()
                };
                cell.request(kernel)
            })
            .collect();
        Segment {
            plan,
            requests: Arc::new(requests),
        }
    }
}

pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Result<RunResult, String> {
    let cells = gen::serve_cells();
    let mut checker = Checker::new()?;
    let off = Tracer::new(false);
    let tail_p = Workload::ServeFamily.tail_percentile();
    let first = Segment::new(seed, 0, &cells);
    // The open loop lasts about `seconds`, in whole segments.
    let segments = ((seconds * RATE / first.plan.len() as f64).round() as usize)
        .max(min_samples_for(tail_p).div_ceil(first.plan.len()));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut max_threads = 0usize;
    let mut count_threads = || {
        max_threads = max_threads.max(stats::thread_count().unwrap_or(0));
    };

    // Cold set-up, then an untimed warm-up on a fresh service: the first
    // cells of each backend and hierarchy.
    setup(&cells, &off)?;
    {
        let service = new_service();
        count_threads();
        let mut kinds = Vec::new();
        for cell in &cells {
            let kind = (cell.backend, cell.preset);
            if kinds.iter().filter(|&&k| k == kind).count() >= WARM_CELLS_PER_KIND {
                continue;
            }
            kinds.push(kind);
            let outcome = service.submit(&cell.request(cell.program.spec()));
            checker.check(cell, outcome.as_ref().map(|(report, _)| report));
        }
    }

    // Saturated passes over the first segment's list are spread evenly
    // between the open-loop segments (P S P S P S for three and three), and
    // set-up repetitions between the passes, so every measurement samples
    // the whole run.  A request plays the same role (miss, hit, twin) in
    // every pass, so its service time is taken as the median over the
    // passes.
    let mut setup_speed = HostSpeed::new();
    let speed = Arc::new(Mutex::new(HostSpeed::new()));
    let mut setup_samples: Vec<(Instant, Duration)> = Vec::new();
    let mut pass_secs = [Vec::new(), Vec::new()];
    let mut service_times: Vec<Vec<(Instant, Duration)>> = vec![Vec::new(); first.plan.len()];
    // (due, start, end) of every open-loop request.
    let mut open_loop: Vec<(Instant, Instant, Instant)> = Vec::new();
    let mut simulated_accesses = 0;
    let mut segment_probe = None;
    let passes = if tracer.enabled() {
        TRACED_RUN_PASSES
    } else {
        SATURATED_PASSES
    };
    let mut phases: Vec<(f64, Option<usize>)> = (0..passes)
        .map(|p| ((p as f64 + 0.5) / passes as f64, None))
        .chain((0..segments).map(|s| ((s as f64 + 0.5) / segments as f64, Some(s))))
        .collect();
    phases.sort_by(|a, b| a.0.total_cmp(&b.0));
    for (_, phase) in phases {
        let Some(index) = phase else {
            let done = pass_secs[0].len() + pass_secs[1].len();
            let traced = tracer.enabled() && done % 2 == 1;
            let t = if traced { tracer } else { &off };
            for _ in 0..SETUP_REPS.div_ceil(passes) {
                setup_speed.sample();
                let start = Instant::now();
                setup_samples.push((start, setup(&cells, t)?));
            }
            let service = new_service();
            let collector = Collector::new();
            let start = Instant::now();
            for i in 0..first.requests.len() {
                spawn_samples(&service, &speed, 1);
                spawn(&service, &first.requests, &collector, t, i, start);
            }
            count_threads();
            let replies = collector.wait_for(first.requests.len());
            pass_secs[usize::from(traced)].push(start.elapsed().as_secs_f64());
            simulated_accesses = check_replies(&mut checker, &cells, &first.plan, &replies);
            for reply in &replies {
                service_times[reply.index].push((reply.start, reply.end - reply.start));
            }
            continue;
        };
        // An open-loop segment on a fresh service.
        let segment = if index == 0 {
            first.clone()
        } else {
            Segment::new(seed, index as u64, &cells)
        };
        let service = new_service();
        let collector = Collector::new();
        let origin = Instant::now() + Duration::from_millis(5);
        for (i, item) in segment.plan.iter().enumerate() {
            let due = origin + Duration::from_nanos(item.due_ns);
            // Sleep until shortly before the due time.  Once the worker is
            // idle, queue reference samples on it, as long as they cannot
            // delay the next request.
            let mut sampled = false;
            loop {
                let now = Instant::now();
                if now + SPIN >= due {
                    break;
                }
                if !sampled && now + IDLE_MARGIN < due && collector.len() == i {
                    spawn_samples(&service, &speed, IDLE_SAMPLES);
                    sampled = true;
                }
                std::thread::sleep((due - now - SPIN).min(POLL));
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            spawn(&service, &segment.requests, &collector, tracer, i, due);
            if i % 32 == 0 {
                count_threads();
            }
        }
        let replies = collector.wait_for(segment.requests.len());
        check_replies(&mut checker, &cells, &segment.plan, &replies);
        open_loop.extend(replies.iter().map(|r| (r.due, r.start, r.end)));
        if index == 0 && tracer.enabled() {
            segment_probe = Some(segment_layers(
                &cells, &segment, &service, &replies, tracer, &checker,
            ));
        }
    }
    // Host times scaled to the nominal host speed.  Dropping every service
    // joined its worker, so every queued sample is recorded.
    let speed = speed.lock().expect("samples not poisoned");
    let pass_ns: f64 = service_times
        .iter()
        .map(|samples| {
            let ns: Vec<f64> = samples
                .iter()
                .map(|&(start, elapsed)| speed.scaled(start, elapsed) * 1e9)
                .collect();
            stats::median(&ns).unwrap_or(0.0)
        })
        .sum();
    let latencies: Vec<f64> = open_loop
        .iter()
        .map(|&(due, _, end)| speed.scaled(due, end - due) * 1e3)
        .collect();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let unscaled: Vec<f64> = open_loop
        .iter()
        .map(|&(due, _, end)| ms(end - due))
        .collect();
    let queued: Vec<f64> = open_loop
        .iter()
        .map(|&(due, start, _)| ms(start - due))
        .collect();
    let served: Vec<f64> = open_loop
        .iter()
        .map(|&(_, start, end)| speed.scaled(start, end - start) * 1e3)
        .collect();
    let setup_s: Vec<f64> = setup_samples
        .iter()
        .map(|&(start, elapsed)| setup_speed.scaled(start, elapsed))
        .collect();

    let mut notes = vec![
        format!(
            "serve-family: open loop at {RATE} requests/s, {segments} segments x {} requests over {} cells, 1 worker + 1 generator thread; tail = p{tail_p}",
            first.plan.len(),
            cells.len()
        ),
        format!(
            "set-up: median of {} repetitions; {} saturated passes; at most {max_threads} threads alive on {cores} cores",
            setup_samples.len(),
            passes
        ),
        format!(
            "open loop: due -> start p50 {:.3} ms, p{tail_p} {:.3} ms; scaled start -> end p50 {:.3} ms, p{tail_p} {:.3} ms",
            stats::median(&queued).unwrap_or(0.0),
            stats::percentile(&queued, tail_p).unwrap_or(0.0),
            stats::median(&served).unwrap_or(0.0),
            stats::percentile(&served, tail_p).unwrap_or(0.0),
        ),
        format!(
            "unscaled latency: p50 {:.3} ms, p{tail_p} {:.3} ms; reference sample median {:.0} ns over {} samples (nominal {:.0} ns)",
            stats::median(&unscaled).unwrap_or(0.0),
            stats::percentile(&unscaled, tail_p).unwrap_or(0.0),
            speed.median_ns(),
            speed.len(),
            crate::host::NOMINAL_REFERENCE_NS,
        ),
    ];
    if !stats::tail_supported(latencies.len(), tail_p) {
        notes.push(format!(
            "WARNING: {} requests leave fewer than 10 beyond p{tail_p}",
            latencies.len()
        ));
    }
    if max_threads > cores.max(2) {
        notes.push(format!("WARNING: {max_threads} threads on {cores} cores"));
    }

    let metrics = if tracer.enabled() {
        let overhead = pass_secs[1].iter().sum::<f64>() / pass_secs[0].iter().sum::<f64>();
        let layers = segment_probe.expect("the first segment was probed");
        serve_layers(layers, &cells, tracer, overhead, &checker)
    } else {
        vec![
            metric("setup_s", stats::median(&setup_s).unwrap_or(0.0), "s"),
            metric(
                "ns_per_access",
                pass_ns / simulated_accesses.max(1) as f64,
                "ns",
            ),
            metric(
                "latency_p50_ms",
                stats::median(&latencies).unwrap_or(0.0),
                "ms",
            ),
            metric(
                "latency_tail_ms",
                stats::percentile(&latencies, tail_p).unwrap_or(0.0),
                "ms",
            ),
            metric(
                "throughput_rps",
                first.plan.len() as f64 / (pass_ns / 1e9),
                "1/s",
            ),
            metric("peak_rss_mb", stats::peak_rss_mib().unwrap_or(0.0), "MiB"),
        ]
    };
    Ok(RunResult {
        checker,
        metrics,
        notes,
    })
}

/// The per-layer measurements of one traced open-loop segment, taken
/// while its service is still alive.
fn segment_layers(
    cells: &[Cell],
    segment: &Segment,
    service: &Arc<SimService>,
    replies: &[Reply],
    tracer: &Tracer,
    checker: &Checker,
) -> Layers {
    let stats: ServeStats = service.stats();
    let mut layers = Layers::default();
    let mut build_ms = Vec::new();
    let (mut sampled_accesses, mut sampled_weighted) = (0.0, 0.0);
    for reply in replies {
        let Ok((report, Served::Simulated)) = &reply.outcome else {
            continue;
        };
        build_ms.push(report.build_ms);
        if let Some(w) = &report.warping {
            layers
                .warping
                .add(w, w.warp_apply_ns as f64, report.sim_ms * 1e6);
        }
        if let Some(approx) = &report.approx {
            let cell = &cells[segment.plan[reply.index].cell];
            let accesses = report.result.accesses as f64;
            sampled_accesses += accesses;
            sampled_weighted += approx.sampled_fraction * accesses;
            layers.measured_intervals += approx.measured_intervals as f64;
            layers.bound_ppm = layers.bound_ppm.max(checker.bound_ppm(cell, report));
        }
    }
    layers.build_ms = stats::median(&build_ms).unwrap_or(0.0);
    if sampled_accesses > 0.0 {
        layers.sampled_fraction = sampled_weighted / sampled_accesses;
    }

    layers.hit_ratio = stats.cache_hits as f64 / stats.requests.max(1) as f64;
    layers.coalesced = stats.coalesced as f64;
    layers.simulated = stats.simulated as f64;
    layers.family_hits = stats.family_hits as f64;
    layers.calibration_hits = stats.calibration_hits as f64;
    layers.calibration_fallbacks = stats.calibration_fallbacks as f64;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let queue: Vec<f64> = replies.iter().map(|r| ms(r.start - r.due)).collect();
    let lag: Vec<f64> = replies
        .iter()
        .map(|r| ms(r.spawned.saturating_duration_since(r.due)))
        .collect();
    layers.queue_ms_p50 = stats::median(&queue).unwrap_or(0.0);
    layers.generator_lag_ms = stats::percentile(&lag, 99.0).unwrap_or(0.0);

    // The wire protocol over the segment's request lines, against its
    // warmed service (every line is a cache hit).
    let lines: String = segment
        .requests
        .iter()
        .map(|r| serde_json::to_string(r).expect("requests serialize") + "\n")
        .collect();
    let start = Instant::now();
    let wire = tracer.span("serve.wire", None, 0, |_| {
        serve::serve_lines_with(
            service,
            std::io::Cursor::new(lines),
            std::io::sink(),
            WireOptions::default(),
        )
    });
    if wire.is_ok() {
        layers.wire_us_per_line =
            start.elapsed().as_secs_f64() * 1e6 / segment.requests.len() as f64;
    }
    layers
}

/// The per-layer metrics of a traced serve-family run.
fn serve_layers(
    mut layers: Layers,
    cells: &[Cell],
    tracer: &Tracer,
    overhead: f64,
    checker: &Checker,
) -> Vec<crate::Metric> {
    layers.overhead = overhead;
    // Walk / cache-update / glue split of the simulated tiled-gemm cells.
    let engine = pinned_engine();
    let tiled: Vec<Cell> = cells
        .iter()
        .filter(|c| matches!(c.program, gen::Program::TiledGemm(_)))
        .map(|c| Cell {
            backend: Backend::Classic,
            ..*c
        })
        .collect();
    if let Ok((programs, _)) = layers::setup_programs(&tiled, &Tracer::new(false)) {
        let mut probe = Probe::default();
        for cell in &tiled {
            let scop = programs.scop(cell.program);
            probe.add(cell, scop, &engine, tracer);
        }
        probe.apply(&mut layers);
    }
    layers.add_spans(tracer);
    layers.set_errors(checker);
    layers.metrics()
}
