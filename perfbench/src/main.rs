//! The warpsim benchmark: one program that drives the public API
//! in-process, one process per workload and seed.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out DIR]
//! perfbench golden <FILE>      # regenerate the golden counts (classic backend)
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.  See README.md.

mod closed;
mod gen;
mod golden;
mod host;
mod layers;
mod serving;
mod stats;
mod trace;

use engine::{Backend, Engine, SimReport};
use gen::{Cell, Workload};
use golden::Golden;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// The engine every workload uses: one thread, so warping never fans warp
/// application out over scoped threads.
pub fn pinned_engine() -> Engine {
    Engine::new().with_threads(1)
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Counts attempted and failed requests and checks every reply against
/// the golden counts.
pub struct Checker {
    golden: Golden,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Worst per-level relative error of any sampled reply, in ppm.
    pub approx_ppm: f64,
}

impl Checker {
    pub fn new() -> Result<Self, String> {
        Ok(Checker {
            golden: Golden::load()?,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            approx_ppm: 0.0,
        })
    }

    /// Checks one reply for `cell`; returns the report when it is right.
    pub fn check<'a, E: std::fmt::Display>(
        &mut self,
        cell: &Cell,
        outcome: Result<&'a SimReport, E>,
    ) -> Option<&'a SimReport> {
        self.attempted += 1;
        let key = cell.golden_key();
        let verdict = match &outcome {
            Err(error) => Err(format!("{key}: {error}")),
            Ok(report) if matches!(cell.backend, Backend::Sampled(_)) => {
                self.golden.check_sampled(&key, report).map(|ppm| {
                    self.approx_ppm = self.approx_ppm.max(ppm);
                })
            }
            Ok(report) if !report.exact => Err(format!("{key}: exact backend reported inexact")),
            Ok(report) => self.golden.check_exact(&key, report),
        };
        match verdict {
            Ok(()) => outcome.ok(),
            Err(message) => self.fail(message),
        }
    }

    /// The worst per-level error bound of a sampled reply, in ppm of the
    /// golden miss count.
    pub fn bound_ppm(&self, cell: &Cell, report: &SimReport) -> f64 {
        self.golden.bound_ppm(&cell.golden_key(), report)
    }

    pub fn fail<T>(&mut self, message: String) -> Option<T> {
        self.failed += 1;
        if self.errors.len() < 10 {
            self.errors.push(message);
        }
        None
    }
}

/// What one run measured.
pub struct RunResult {
    pub checker: Checker,
    pub metrics: Vec<Metric>,
    /// Human-readable context lines printed before the result.
    pub notes: Vec<String>,
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 31;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} expects a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::by_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds expects a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        out,
    })
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn run(args: &Args) -> Result<RunResult, String> {
    let tracer = Tracer::new(args.trace);
    let result = match args.workload {
        Workload::ServeFamily => serving::run(args.seed, args.seconds, &tracer),
        workload => closed::run(workload, args.seed, args.seconds, &tracer),
    }?;
    if tracer.enabled() {
        let path = args
            .out
            .join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
        tracer
            .write_json(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }
    Ok(result)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("golden") {
        let Some(path) = argv.get(1) else {
            eprintln!("usage: perfbench golden <FILE>");
            std::process::exit(2);
        };
        if let Err(e) = layers::write_golden(path) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out DIR]",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let result = match run(&args) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let checker = &result.checker;
    if checker.attempted == 0 {
        eprintln!("perfbench: no request was attempted");
        std::process::exit(1);
    }
    for note in &result.notes {
        println!("# {note}");
    }
    for error in &checker.errors {
        println!("# FAILED: {error}");
    }
    for m in &result.metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "# {} attempted, {} failed, {:.1} s wall",
        checker.attempted,
        checker.failed,
        started.elapsed().as_secs_f64()
    );
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.failed == 0,
        checker.attempted,
        checker.failed,
        metrics.join(", ")
    );
}
