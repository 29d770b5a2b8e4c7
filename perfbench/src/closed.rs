//! The closed-loop PolyBench workloads: one caller, next request only
//! after the previous reply, over `Engine::run`.
//!
//! A run is a whole number of *rounds* that lasts about `--seconds`;
//! every round runs every catalog cell once in a seeded order, so each run
//! sees the same mix of requests whatever its length and seed.  Every simulation starts from empty
//! modelled caches (`Engine::run` is stateless); only the host is warm.
//! A reference sample precedes every request and every set-up, so each
//! time can be scaled to the nominal host speed (see `host.rs`).

use crate::gen::{self, Workload};
use crate::host::HostSpeed;
use crate::layers;
use crate::stats::{self, min_samples_for};
use crate::trace::Tracer;
use crate::{metric, pinned_engine, Checker, RunResult, SETUP_REPS};
use engine::{KernelSpec, SimReport, SimRequest};
use std::time::{Duration, Instant};

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
) -> Result<RunResult, String> {
    let cells = match workload {
        Workload::ClassicPolybench => gen::classic_cells(),
        Workload::WarpingPolybench => gen::warping_cells(),
        Workload::ServeFamily => unreachable!("serve-family is open loop"),
    };
    let mut checker = Checker::new()?;
    let off = Tracer::new(false);

    // Cold set-up, untimed: its elaborated kernels feed every request.
    let (programs, _) = layers::setup_programs(&cells, &off)?;
    let engine = pinned_engine();
    let requests: Vec<SimRequest> = cells
        .iter()
        .map(|cell| {
            let scop = programs.scop(cell.program).clone();
            cell.request(KernelSpec::prebuilt(cell.program.name(), scop))
        })
        .collect();

    // Warm the host: one untimed, checked pass over every cell.
    let warm_start = Instant::now();
    for (cell, request) in cells.iter().zip(&requests) {
        checker.check(cell, engine.run(request).as_ref());
    }
    let round_estimate = warm_start.elapsed().as_secs_f64();

    let tail_p = workload.tail_percentile();
    let min_rounds = min_samples_for(tail_p).div_ceil(cells.len());
    let expected_rounds = ((seconds / round_estimate).floor() as usize).max(min_rounds);
    let setups_per_round = SETUP_REPS.div_ceil(expected_rounds);
    // Traced and untraced rounds alternate, so tracing overhead is measured
    // on the same mix; a traced run ends after an even number of rounds.
    let round_step = if tracer.enabled() { 2 } else { 1 };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);

    let mut speed = HostSpeed::new();
    let mut setup_samples: Vec<(Instant, Duration)> = Vec::new();
    let mut timings: Vec<Vec<(Instant, Duration)>> = vec![Vec::new(); cells.len()];
    let mut accesses = vec![0u64; cells.len()];
    let mut traced_reports: Vec<Vec<SimReport>> = vec![Vec::new(); cells.len()];
    let mut round_wall = [Duration::ZERO; 2];
    let mut id = 0u64;
    let mut rounds = 0;
    while rounds < min_rounds || rounds % round_step != 0 || Instant::now() < deadline {
        let round = rounds;
        rounds += 1;
        let traced = tracer.enabled() && round % 2 == 1;
        let t = if traced { tracer } else { &off };
        for _ in 0..setups_per_round {
            speed.sample();
            let start = Instant::now();
            setup_samples.push((start, layers::setup_programs(&cells, t)?.1));
        }
        let round_start = Instant::now();
        let phase = t.open("bench.round", None, round as u64);
        for index in gen::round_order(seed, round as u64, cells.len()) {
            id += 1;
            speed.sample();
            let request_span = t.open("bench.request", phase, id);
            let start = Instant::now();
            let outcome = t.span("engine.run", request_span, id, |_| {
                engine.run(&requests[index])
            });
            let elapsed = start.elapsed();
            if let Some(report) = checker.check(&cells[index], outcome.as_ref()) {
                timings[index].push((start, elapsed));
                accesses[index] = report.result.accesses;
                if traced {
                    traced_reports[index].push(report.clone());
                }
            }
            t.close(request_span);
        }
        t.close(phase);
        round_wall[usize::from(traced)] += round_start.elapsed();
    }

    // Host time scaled to the nominal host speed, in ns.
    let latency_ns: Vec<Vec<f64>> = timings
        .iter()
        .map(|samples| {
            samples
                .iter()
                .map(|&(start, elapsed)| speed.scaled(start, elapsed) * 1e9)
                .collect()
        })
        .collect();
    let unscaled: Vec<f64> = timings
        .iter()
        .flatten()
        .map(|(_, elapsed)| elapsed.as_secs_f64() * 1e3)
        .collect();
    let setup_s: Vec<f64> = setup_samples
        .iter()
        .map(|&(start, elapsed)| speed.scaled(start, elapsed))
        .collect();
    let cell_medians: Vec<f64> = latency_ns
        .iter()
        .map(|samples| stats::median(samples).unwrap_or(0.0))
        .collect();
    // Every cell ran once per round, so a cell's latencies differ only by
    // host noise and by which requests ran before it.  Each request's
    // latency is replaced by its cell's median before taking quantiles.
    let smoothed: Vec<f64> = latency_ns
        .iter()
        .zip(&cell_medians)
        .flat_map(|(samples, m)| std::iter::repeat_n(m / 1e6, samples.len()))
        .collect();
    let round_ns: f64 = cell_medians.iter().sum();
    let round_accesses: u64 = accesses.iter().sum();
    let mut notes = vec![
        format!(
            "{}: closed loop, 1 caller, engine threads 1; {} cells x {} rounds = {} requests; tail = p{}",
            workload.name(),
            cells.len(),
            rounds,
            unscaled.len(),
            tail_p
        ),
        format!("set-up: median of {} repetitions", setup_samples.len()),
        format!(
            "unscaled, unsmoothed latency: p50 {:.3} ms, p{tail_p} {:.3} ms; reference sample median {:.0} ns over {} samples (nominal {:.0} ns)",
            stats::median(&unscaled).unwrap_or(0.0),
            stats::percentile(&unscaled, tail_p).unwrap_or(0.0),
            speed.median_ns(),
            speed.len(),
            crate::host::NOMINAL_REFERENCE_NS,
        ),
    ];
    if !stats::tail_supported(unscaled.len(), tail_p) {
        notes.push(format!(
            "WARNING: {} requests leave fewer than 10 beyond p{tail_p}",
            unscaled.len()
        ));
    }

    let metrics = if tracer.enabled() {
        let overhead = round_wall[1].as_secs_f64() / round_wall[0].as_secs_f64();
        layers::closed_layers(
            workload,
            &cells,
            &programs,
            &engine,
            tracer,
            &traced_reports,
            overhead,
            &checker,
        )
    } else {
        vec![
            metric("setup_s", stats::median(&setup_s).unwrap_or(0.0), "s"),
            metric("ns_per_access", round_ns / round_accesses as f64, "ns"),
            metric(
                "latency_p50_ms",
                stats::median(&smoothed).unwrap_or(0.0),
                "ms",
            ),
            metric(
                "latency_tail_ms",
                stats::percentile(&smoothed, tail_p).unwrap_or(0.0),
                "ms",
            ),
            metric(
                "throughput_rps",
                cells.len() as f64 / (round_ns / 1e9),
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
