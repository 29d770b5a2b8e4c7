//! Calls into single layers: the timed set-up (scop), the per-layer probes
//! of the traced run (walk, cache update, engine glue, hashing), the
//! per-layer metric set, and golden-count generation.

use crate::gen::{self, Cell, Program, Workload};
use crate::stats;
use crate::trace::{self, SpanId, Tracer};
use crate::{metric, pinned_engine, Checker, Metric};
use engine::{Backend, Engine, KernelSpec, SimReport, SimRequest, WarpingStats};
use scop::{compile, elaborate, parse_program, AccessRun, ElaborateOptions, ParamBindings, Scop};
use simulate::{MemorySystem, MultiLevelSystem};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The distinct programs of a catalog, elaborated.
pub struct Programs {
    programs: Vec<Program>,
    scops: Vec<Scop>,
}

impl Programs {
    pub fn scop(&self, program: Program) -> &Scop {
        let index = self
            .programs
            .iter()
            .position(|&p| p == program)
            .expect("every cell's program was set up");
        &self.scops[index]
    }
}

fn build(program: Program, tracer: &Tracer, parent: Option<SpanId>) -> Result<Scop, String> {
    let scop = match program {
        Program::PolyBench(kernel, dataset) => {
            let source = kernel.source(dataset);
            let ast = tracer
                .span("scop.parse", parent, 0, |_| parse_program(&source))
                .map_err(|e| format!("{}: {e}", program.name()))?;
            tracer
                .span("scop.elaborate", parent, 0, |_| {
                    elaborate(&ast, &ElaborateOptions::default())
                })
                .map_err(|e| format!("{}: {e}", program.name()))?
        }
        Program::TiledGemm(values) => {
            let template = scop::ParametricScop::cached(polybench::parametric::TILED_GEMM)
                .map_err(|e| e.to_string())?;
            let bindings =
                ParamBindings::from_pairs(["NI", "NJ", "NK", "TI", "TJ"].into_iter().zip(values));
            tracer
                .span("scop.instantiate", parent, 0, |_| {
                    template.instantiate(&bindings)
                })
                .map_err(|e| format!("{}: {e}", program.name()))?
        }
    };
    tracer.span("scop.compile", parent, 0, |_| black_box(compile(&scop)));
    Ok(scop)
}

/// The set-up every run pays before its first request can be answered:
/// build (parse + elaborate, or instantiate) and compile every distinct
/// program of the catalog, and construct the engine.
pub fn setup_programs(cells: &[Cell], tracer: &Tracer) -> Result<(Programs, Duration), String> {
    let start = Instant::now();
    let span = tracer.open("bench.setup", None, 0);
    let mut programs: Vec<Program> = Vec::new();
    for cell in cells {
        if !programs.contains(&cell.program) {
            programs.push(cell.program);
        }
    }
    let scops = programs
        .iter()
        .map(|&p| build(p, tracer, span))
        .collect::<Result<Vec<_>, _>>()?;
    black_box(pinned_engine());
    tracer.close(span);
    Ok((Programs { programs, scops }, start.elapsed()))
}

/// Every per-layer metric; a workload that bypasses a layer reports 0.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub parse_us: f64,
    pub elaborate_us: f64,
    pub instantiate_us: f64,
    pub compile_us: f64,
    pub walk_ns_per_access: f64,
    pub accesses_per_run: f64,
    pub update_ns_per_access: f64,
    pub simulate_self_ns_per_access: f64,
    pub hash_us: f64,
    pub build_ms: f64,
    pub warping: WarpTotals,
    pub tax_ratio: f64,
    pub sampled_fraction: f64,
    pub measured_intervals: f64,
    pub bound_ppm: f64,
    pub hit_ratio: f64,
    pub coalesced: f64,
    pub simulated: f64,
    pub family_hits: f64,
    pub calibration_hits: f64,
    pub calibration_fallbacks: f64,
    pub queue_ms_p50: f64,
    pub generator_lag_ms: f64,
    pub wire_us_per_line: f64,
    pub overhead: f64,
    pub coverage: f64,
    pub approx_error_ppm: f64,
    pub error_rate: f64,
}

/// Warping statistics summed over one pass of a workload's requests.
#[derive(Clone, Debug, Default)]
pub struct WarpTotals {
    pub warps: u64,
    pub match_attempts: u64,
    pub fingerprint_hits: u64,
    pub exact_key_builds: u64,
    pub warped_accesses: u64,
    pub non_warped_accesses: u64,
    pub apply_ns: f64,
    pub sim_ns: f64,
}

impl WarpTotals {
    /// Adds one report's counts, with its warp-application and simulation
    /// times given separately (a single run's, or medians over repeats).
    pub fn add(&mut self, w: &WarpingStats, apply_ns: f64, sim_ns: f64) {
        self.warps += w.warps;
        self.match_attempts += w.match_attempts;
        self.fingerprint_hits += w.fingerprint_hits;
        self.exact_key_builds += w.exact_key_builds;
        self.warped_accesses += w.warped_accesses;
        self.non_warped_accesses += w.non_warped_accesses;
        self.apply_ns += apply_ns;
        self.sim_ns += sim_ns;
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Layers {
    pub fn metrics(&self) -> Vec<Metric> {
        let w = &self.warping;
        vec![
            metric("scop.parse_us", self.parse_us, "us"),
            metric("scop.elaborate_us", self.elaborate_us, "us"),
            metric("scop.instantiate_us", self.instantiate_us, "us"),
            metric("scop.compile_us", self.compile_us, "us"),
            metric("scop.walk_ns_per_access", self.walk_ns_per_access, "ns"),
            metric("scop.accesses_per_run", self.accesses_per_run, "count"),
            metric(
                "cache.update_ns_per_access",
                self.update_ns_per_access,
                "ns",
            ),
            metric(
                "simulate.self_ns_per_access",
                self.simulate_self_ns_per_access,
                "ns",
            ),
            metric("engine.hash_us", self.hash_us, "us"),
            metric("engine.build_ms", self.build_ms, "ms"),
            metric("warping.warps", w.warps as f64, "count"),
            metric("warping.match_attempts", w.match_attempts as f64, "count"),
            metric(
                "warping.fingerprint_hits",
                w.fingerprint_hits as f64,
                "count",
            ),
            metric(
                "warping.exact_key_builds",
                w.exact_key_builds as f64,
                "count",
            ),
            metric(
                "warping.key_yield",
                ratio(w.warps as f64, w.exact_key_builds as f64),
                "ratio",
            ),
            metric(
                "warping.non_warped_share",
                ratio(
                    w.non_warped_accesses as f64,
                    (w.warped_accesses + w.non_warped_accesses) as f64,
                ),
                "fraction",
            ),
            metric("warping.apply_ms", w.apply_ns / 1e6, "ms"),
            metric(
                "warping.explicit_ns_per_access",
                ratio(w.sim_ns, w.non_warped_accesses as f64),
                "ns",
            ),
            metric("warping.tax_ratio", self.tax_ratio, "ratio"),
            metric(
                "sampling.sampled_fraction",
                self.sampled_fraction,
                "fraction",
            ),
            metric(
                "sampling.measured_intervals",
                self.measured_intervals,
                "count",
            ),
            metric("sampling.bound_ppm", self.bound_ppm, "ppm"),
            metric("serve.cache.hit_ratio", self.hit_ratio, "fraction"),
            metric("serve.dedup.coalesced", self.coalesced, "count"),
            metric("serve.simulated", self.simulated, "count"),
            metric("serve.family.hits", self.family_hits, "count"),
            metric("serve.calibration.hits", self.calibration_hits, "count"),
            metric(
                "serve.calibration.fallbacks",
                self.calibration_fallbacks,
                "count",
            ),
            metric("serve.queue_ms_p50", self.queue_ms_p50, "ms"),
            metric("serve.generator_lag_ms", self.generator_lag_ms, "ms"),
            metric("serve.wire.us_per_line", self.wire_us_per_line, "us"),
            metric("trace.overhead", self.overhead, "ratio"),
            metric("trace.coverage", self.coverage, "fraction"),
            metric("approx_error_ppm", self.approx_error_ppm, "ppm"),
            metric("error_rate", self.error_rate, "fraction"),
        ]
    }

    /// Fills the set-up layer means (µs per call) and trace coverage from
    /// the recorded spans.
    pub fn add_spans(&mut self, tracer: &Tracer) {
        let spans = tracer.spans();
        let totals = trace::totals(&spans);
        let mean_us = |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |t| t.total_ns as f64 / t.count as f64 / 1e3)
        };
        self.parse_us = mean_us("scop.parse");
        self.elaborate_us = mean_us("scop.elaborate");
        self.instantiate_us = mean_us("scop.instantiate");
        self.compile_us = mean_us("scop.compile");
        self.coverage = trace::coverage(&spans);
    }

    pub fn set_errors(&mut self, checker: &Checker) {
        self.approx_error_ppm = checker.approx_ppm;
        self.error_rate = ratio(checker.failed as f64, checker.attempted as f64);
    }
}

/// Split of classic simulation into walk, cache update and engine glue,
/// measured by timing each public call on its own.
#[derive(Default)]
pub struct Probe {
    walk_ns: f64,
    update_ns: f64,
    run_ns: f64,
    build_ns: f64,
    accesses: u64,
    runs: u64,
    hash_ns: Vec<f64>,
}

impl Probe {
    /// Probes `cell` (its kernel already elaborated as `scop`).
    pub fn add(&mut self, cell: &Cell, scop: &Scop, engine: &Engine, tracer: &Tracer) {
        let request = cell.request(cell.program.spec());
        let start = Instant::now();
        tracer.span("engine.hash", None, 0, |_| {
            black_box(request.canonical_hash())
        });
        self.hash_ns.push(start.elapsed().as_nanos() as f64);

        let compiled = compile(scop);
        let mut scratch = compiled.new_scratch();
        let (mut runs, mut accesses) = (0u64, 0u64);
        let start = Instant::now();
        tracer.span("scop.walk", None, 0, |_| {
            compiled.for_each_run(&mut scratch, |run| {
                runs += 1;
                accesses += run.count;
            })
        });
        self.walk_ns += start.elapsed().as_nanos() as f64;

        let mut recorded: Vec<AccessRun> = Vec::with_capacity(runs as usize);
        compiled.for_each_run(&mut scratch, |run| recorded.push(*run));
        let mut system = MultiLevelSystem::new(cell.preset.memory(cell.policy));
        let start = Instant::now();
        tracer.span("cache.update", None, 0, |_| {
            for run in &recorded {
                system.access_run(run.base, run.stride, run.count, run.kind);
            }
        });
        self.update_ns += start.elapsed().as_nanos() as f64;
        black_box(system.result());
        drop(recorded);

        let classic = SimRequest::new(
            KernelSpec::prebuilt(cell.program.name(), scop.clone()),
            cell.preset.memory(cell.policy),
            Backend::Classic,
        );
        let start = Instant::now();
        let report = tracer.span("engine.run", None, 0, |_| engine.run(&classic));
        self.run_ns += start.elapsed().as_nanos() as f64;
        if let Ok(report) = report {
            self.build_ns += report.build_ms * 1e6;
        }
        self.accesses += accesses;
        self.runs += runs;
    }

    pub fn apply(&self, layers: &mut Layers) {
        let per_access = |ns: f64| ratio(ns, self.accesses as f64);
        layers.walk_ns_per_access = per_access(self.walk_ns);
        layers.update_ns_per_access = per_access(self.update_ns);
        layers.simulate_self_ns_per_access =
            per_access(self.run_ns - self.build_ns - self.walk_ns - self.update_ns);
        layers.accesses_per_run = ratio(self.accesses as f64, self.runs as f64);
        layers.hash_us = stats::median(&self.hash_ns).unwrap_or(0.0) / 1e3;
    }
}

/// Probes larger than this many accesses are skipped (the MEDIUM
/// stencils, whose classic replay alone would take seconds).
pub const PROBE_BUDGET: u64 = 8_000_000;

/// The per-layer metrics of a traced closed-loop run.
#[allow(clippy::too_many_arguments)]
pub fn closed_layers(
    workload: Workload,
    cells: &[Cell],
    programs: &Programs,
    engine: &Engine,
    tracer: &Tracer,
    traced_reports: &[Vec<SimReport>],
    overhead: f64,
    checker: &Checker,
) -> Vec<Metric> {
    let mut layers = Layers {
        overhead,
        ..Layers::default()
    };
    let mut probe = Probe::default();
    let mut build_ms = Vec::new();
    for (cell, reports) in cells.iter().zip(traced_reports) {
        let scop = programs.scop(cell.program);
        build_ms.extend(reports.iter().map(|r| r.build_ms));
        if reports
            .first()
            .is_some_and(|r| r.result.accesses <= PROBE_BUDGET)
        {
            probe.add(cell, scop, engine, tracer);
        }
    }
    probe.apply(&mut layers);
    layers.build_ms = stats::median(&build_ms).unwrap_or(0.0);

    // Warping counts per pass (every traced round repeats them exactly);
    // times are per-cell medians over the traced rounds.
    for reports in traced_reports {
        let Some(w) = reports.first().and_then(|r| r.warping) else {
            continue;
        };
        let median = |f: fn(&SimReport) -> f64| {
            stats::median(&reports.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        layers.warping.add(
            &w,
            median(|r| r.warping.map_or(0.0, |w| w.warp_apply_ns as f64)),
            median(|r| r.sim_ms * 1e6),
        );
    }

    if workload == Workload::WarpingPolybench {
        layers.tax_ratio = tax_ratio(cells, programs, engine, tracer);
    }
    layers.add_spans(tracer);
    layers.set_errors(checker);
    layers.metrics()
}

/// Warping ÷ classic host time on the never-warping slice, each side the
/// sum over cells of the median of alternating runs.
fn tax_ratio(cells: &[Cell], programs: &Programs, engine: &Engine, tracer: &Tracer) -> f64 {
    const REPS: usize = 5;
    let (mut warping, mut classic) = (0.0, 0.0);
    for cell in cells.iter().filter(|c| gen::is_never_warping(c)) {
        let scop = programs.scop(cell.program);
        let kernel = KernelSpec::prebuilt(cell.program.name(), scop.clone());
        let mut times = [Vec::new(), Vec::new()];
        for rep in 0..2 * REPS {
            let backend = if rep % 2 == 0 {
                Backend::Classic
            } else {
                Backend::warping()
            };
            let request = SimRequest::new(kernel.clone(), cell.preset.memory(cell.policy), backend);
            let start = Instant::now();
            let _ = tracer.span("engine.run", None, 0, |_| engine.run(&request));
            times[rep % 2].push(start.elapsed().as_secs_f64());
        }
        classic += stats::median(&times[0]).unwrap_or(0.0);
        warping += stats::median(&times[1]).unwrap_or(0.0);
    }
    ratio(warping, classic)
}

/// Regenerates the golden counts of every catalog cell with the classic
/// backend.
pub fn write_golden(path: &str) -> Result<(), String> {
    let engine = pinned_engine();
    let mut lines: Vec<String> = Vec::new();
    let mut keys: Vec<String> = Vec::new();
    for cell in gen::classic_cells()
        .into_iter()
        .chain(gen::warping_cells())
        .chain(gen::serve_cells())
    {
        let key = cell.golden_key();
        if keys.contains(&key) {
            continue;
        }
        let classic = Cell {
            backend: Backend::Classic,
            ..cell
        };
        let report = engine
            .run(&classic.request(cell.program.spec()))
            .map_err(|e| format!("{key}: {e}"))?;
        eprintln!("{key}: {} accesses", report.result.accesses);
        lines.push(crate::golden::Counts::of(&report).line(&key));
        keys.push(key);
    }
    lines.sort();
    std::fs::write(path, lines.join("\n") + "\n").map_err(|e| format!("{path}: {e}"))
}
