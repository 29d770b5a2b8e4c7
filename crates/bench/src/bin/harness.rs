//! Experiment harness: regenerates the data behind every figure of the
//! paper's evaluation, and serves ad-hoc simulation grids through the
//! unified engine.
//!
//! Every subcommand reads its flags from one table ([`FLAGS`]); `harness`
//! without arguments prints the usage text generated from it.
//!
//! ```text
//! harness <experiment> [flags]     experiments:
//!   fig6    warping vs non-warping speedup + non-warped share (4 policies)
//!   fig7    problem-size scaling of warping vs non-warping times
//!   fig8    warping vs the HayStack-style analytical model
//!   fig9    two-level warping vs the PolyCache-style model
//!   fig10   miss counts per replacement policy relative to LRU
//!   fig11   accuracy vs the hardware-measurement stand-in (also fig13/14)
//!   fig12   non-warping simulation vs the Dinero-IV-style trace simulator
//!   verify  check that warping and non-warping agree on every kernel
//!   all     run every figure
//!   grid    fan a kernel × policy × backend grid out through the engine
//! harness explore [flags]
//! harness serve [flags]
//! ```
//!
//! # `grid`
//!
//! `--levels` describes the memory system as a comma-separated list of
//! cache levels, innermost first.  Each level is
//! `[name:]size:assoc:line_size` with `K`/`M` size suffixes, e.g.
//! `--levels l1:32K:8:64,l2:256K:8:64,l3:2M:16:64` for an L1/L2/L3
//! hierarchy (the optional `l1:`-style name is documentation only).  The
//! named presets `l1` (default, single-level 32K:8:64), `l1l2` (adds a 1M
//! 16-way L2) and `l1l2l3` (adds an 8M 16-way L3) cover the common
//! scenarios.  Every level uses the replacement policy of the grid row.
//!
//! `--threads N` is the batch fan-out width (`Engine::with_threads`): the
//! grid's requests run on up to N threads, each request on one.  Counts
//! are bit-identical for every N.  Warping rows report the two-phase match
//! telemetry (warps, fingerprint hits, exact-key builds, warp-apply time)
//! and a `renorms` column: frozen outer levels matched through
//! epoch-relative labels, summed over applied warps.
//!
//! `--sample-rate F` and `--warmup N` tune the `sampled` backend
//! (`SamplingOptions`): F is the target fraction of outer-loop intervals
//! to simulate, in (0, 1] (default 0.1; 1.0 is bit-identical to
//! `classic`), and N is the number of warm-up intervals
//! simulated-but-discarded per live cache level before each measured
//! interval (default 1).  Both are validated up front: a rate outside
//! (0, 1] or a negative warm-up dies with an explanation before anything
//! simulates.  Sampled rows report approximation stats in `--json` output
//! (`approx`: sampled fraction, per-level error bounds, interval counts).
//!
//! # `explore`
//!
//! Sweeps a parametric kernel family across tile-size bindings × memory
//! hierarchies × replacement policies.  The template (default: the tiled
//! `gemm` of `polybench::parametric`) is parsed ONCE and registered as a
//! kernel family with the serving layer; every grid point is a binding of
//! its `param`s stamped out by substitution, so the sweep never re-parses
//! source.  Points fan out through the service's worker pool and
//! stream back as they finish (rows arrive out of grid order).  After the
//! grid drains, the harness prints, per hierarchy × policy, the Pareto
//! front of (tile configuration, per-level miss counts): the configs no
//! other config beats on every cache level at once.  `--hierarchies` takes
//! `;`-separated `--levels` specs; `--sweep` takes `;`-separated
//! `NAME=v1,v2,...` axes; `--bind` fixes the remaining parameters.  The
//! trailer reports the family-tier counters (requests, report-cache hits,
//! simulations).
//!
//! # `serve`
//!
//! Runs the JSON-lines simulation service.  Without `--addr` it reads
//! requests from stdin and writes envelopes to stdout.  With `--addr` it
//! listens on TCP (port 0 picks a free port; the bound address is printed
//! as `serving on HOST:PORT` before the first accept), serves any number
//! of sequential or concurrent connections, and stops when a client sends
//! `{"cmd":"shutdown"}`.  One request per line — a `SimRequest` JSON object
//! or an `{"id":…, "request":…}` wrapper — answered out-of-order by
//! `{"id","served","cached","serve_ns","report"}` envelopes; identical
//! requests (under variable renaming) are answered from a
//! content-addressed report cache or coalesced onto an in-flight
//! simulation.  `{"cmd":"stats"}` and end of input report a
//! `{"serve_stats":{…}}` summary.  `--cache-cap` bounds the report cache
//! in entries and `--workers` sizes the worker pool (env defaults:
//! WARPSIM_SERVE_CACHE_CAP, WARPSIM_SERVE_WORKERS); `--workers 0` and
//! `--cache-cap 0` are rejected up front (a zero-worker pool would never
//! run anything; a zero-entry cache would re-simulate every request).
//!
//! `--debug-hash` adds the 128-bit canonical address of every request
//! (`"canonical_hash"`, hex) to its reply envelope, so clients can verify
//! that two spellings of a kernel really collide.
//!
//! `--exact-budget N` puts the service in degraded-capable mode: an exact
//! request (classic/warping/trace) whose kernel exceeds N dynamic accesses
//! is rewritten onto the `sampled` backend and its envelope is marked
//! `"approx": true` (the report's `approx` object carries the sampled
//! fraction and per-level error bounds).  Degraded reports are cached
//! under the sampled request's own canonical address, so they never
//! displace a cached exact report.  `--exact-budget 0` is rejected up
//! front (env default: WARPSIM_SERVE_EXACT_BUDGET).

use bench_suite::*;
use cache_model::{CacheConfig, MemoryConfig, ReplacementPolicy};
use engine::{Backend, Engine, KernelSpec, SamplingOptions, SimRequest};
use polybench::{Dataset, Kernel};
use serde::Serialize;
use std::collections::HashMap;

/// The three argument grammars: the experiments (figures, `verify`,
/// `grid`, `all`) share one, `explore` and `serve` have their own.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Command {
    Experiment,
    Explore,
    Serve,
}

use Command::{Experiment, Explore, Serve};

/// One command-line flag: `--name`, followed by a value unless `value` is
/// `None` (a switch).
struct Flag {
    name: &'static str,
    /// The value's placeholder in the usage text.
    value: Option<&'static str>,
    help: &'static str,
    commands: &'static [Command],
}

const fn flag(
    name: &'static str,
    value: &'static str,
    help: &'static str,
    commands: &'static [Command],
) -> Flag {
    Flag {
        name,
        value: if value.is_empty() { None } else { Some(value) },
        help,
        commands,
    }
}

/// Every flag of every subcommand; the parser and [`print_usage`] both
/// read this table.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag("size", "mini|small|medium|large|extralarge", "dataset size (default small)", &[Experiment]),
    flag("kernels", "k1,k2,...", "PolyBench kernels (default all)", &[Experiment]),
    flag("policies", "lru,fifo,plru,qlru", "replacement policies (default plru; explore: lru,plru)", &[Experiment, Explore]),
    flag("backends", "classic,warping,haystack,polycache,trace,sampled", "grid backends (default classic,warping)", &[Experiment]),
    flag("levels", "SPEC", "cache levels [name:]size:assoc:line,... or l1|l1l2|l1l2l3 (default l1)", &[Experiment]),
    flag("threads", "N", "batch fan-out width (default: all cores)", &[Experiment]),
    flag("sample-rate", "F", "sampled backend's interval fraction in (0, 1] (default 0.1)", &[Experiment]),
    flag("warmup", "N", "sampled backend's warm-up intervals per level (default 1)", &[Experiment]),
    flag("sweep", "TI=4,8;TJ=4,8", "swept parameters (default TI=4,8,16,32;TJ=4,8,16,32)", &[Explore]),
    flag("bind", "NI=32,...", "fixed parameters (default NI=32,NJ=32,NK=32)", &[Explore]),
    flag("hierarchies", "l1;l1l2", "`;`-separated --levels specs (default l1;l1l2)", &[Explore]),
    flag("backend", "NAME", "backend of every point (default warping)", &[Explore]),
    flag("template", "FILE", "parametric kernel source (default tiled gemm)", &[Explore]),
    flag("name", "NAME", "family name (default tiled-gemm)", &[Explore]),
    flag("max-error", "N", "sampled backend's per-level miss error target", &[Explore]),
    flag("latencies", "L1:4,L2:14,MEM:100", "cycle model for the estimated-time front", &[Explore]),
    flag("addr", "HOST:PORT", "listen on TCP instead of stdin/stdout", &[Serve]),
    flag("cache-cap", "N", "report cache entries", &[Serve]),
    flag("workers", "N", "worker pool size", &[Explore, Serve]),
    flag("exact-budget", "N", "degrade exact requests above N accesses to sampling", &[Serve]),
    flag("debug-hash", "", "add each request's canonical hash to its envelope", &[Serve]),
    flag("json", "", "print JSON instead of text tables", &[Experiment, Explore]),
];

/// The paper's figures in order: `figN` runs one, `all` runs every one.
type Figure = (&'static str, fn(&ExperimentConfig, bool));

const FIGURES: [Figure; 7] = [
    ("fig6", |c, json| {
        emit(json, "Fig. 6: warping vs non-warping", &fig6(c), fig6_text)
    }),
    ("fig7", |c, json| {
        let rows = fig7(&c.kernels, &[c.dataset, next_size(c.dataset)]);
        emit(json, "Fig. 7: problem-size scaling", &rows, fig7_text)
    }),
    ("fig8", |c, json| {
        emit(json, "Fig. 8: warping vs HayStack", &fig8(c), fig8_text)
    }),
    ("fig9", |c, json| {
        emit(json, "Fig. 9: warping vs PolyCache", &fig9(c), fig9_text)
    }),
    ("fig10", |c, json| {
        emit(json, "Fig. 10: policy influence", &fig10(c), fig10_text)
    }),
    ("fig11", |c, json| {
        emit(
            json,
            "Fig. 11: accuracy vs measurements",
            &fig11(c),
            fig11_text,
        )
    }),
    ("fig12", |c, json| {
        emit(
            json,
            "Fig. 12: non-warping vs Dinero IV",
            &fig12(c),
            fig12_text,
        )
    }),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(subcommand) = args.first().map(String::as_str) else {
        print_usage();
        std::process::exit(2);
    };
    let command = match subcommand {
        "explore" => Explore,
        "serve" => Serve,
        _ => Experiment,
    };
    let flags = Flags::parse(command, subcommand, &args[1..]);
    match command {
        Explore => explore_command(&flags),
        Serve => serve_command(&flags),
        Experiment => experiment(subcommand, &flags),
    }
}

/// Parsed flag values by name; a switch maps to the empty string.  A flag
/// given twice keeps its last value.
struct Flags(HashMap<&'static str, String>);

impl Flags {
    /// Parses `args` against the rows of [`FLAGS`] that `command` accepts;
    /// anything else dies.
    fn parse(command: Command, subcommand: &str, args: &[String]) -> Flags {
        let mut values = HashMap::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let flag = FLAGS
                .iter()
                .find(|f| arg.strip_prefix("--") == Some(f.name) && f.commands.contains(&command))
                .unwrap_or_else(|| die(&format!("unknown {subcommand} argument `{arg}`")));
            let value = match flag.value {
                None => String::new(),
                Some(placeholder) => args.next().cloned().unwrap_or_else(|| {
                    die(&format!(
                        "missing value for --{} (expects {placeholder})",
                        flag.name
                    ))
                }),
            };
            values.insert(flag.name, value);
        }
        Flags(values)
    }

    fn get(&self, name: &str) -> Option<&str> {
        debug_assert!(FLAGS.iter().any(|f| f.name == name), "no flag --{name}");
        self.0.get(name).map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        debug_assert!(FLAGS.iter().any(|f| f.name == name), "no flag --{name}");
        self.0.contains_key(name)
    }

    /// A comma-separated list, each item looked up by `lookup`; `what`
    /// names an item in the error.
    fn list<T>(
        &self,
        name: &str,
        what: &str,
        lookup: impl Fn(&str) -> Option<T>,
    ) -> Option<Vec<T>> {
        self.get(name).map(|list| {
            list.split(',')
                .map(|item| {
                    lookup(item.trim()).unwrap_or_else(|| die(&format!("unknown {what} `{item}`")))
                })
                .collect()
        })
    }

    /// A number; `expects` describes it in the error.
    fn number<T: std::str::FromStr>(&self, name: &str, expects: &str) -> Option<T> {
        self.get(name).map(|value| {
            value
                .parse()
                .unwrap_or_else(|_| die(&format!("--{name} expects {expects}")))
        })
    }

    fn policies(&self) -> Option<Vec<ReplacementPolicy>> {
        self.list("policies", "policy", |name| {
            ReplacementPolicy::by_name(&name.to_ascii_lowercase())
        })
    }
}

/// The experiment subcommands: every figure, `verify`, `grid` and `all`.
/// The grid flags are validated for all of them, so a bad value dies the
/// same way whichever experiment it is given to.
fn experiment(name: &str, flags: &Flags) {
    let dataset = flags.get("size").map_or(Dataset::Small, |size| {
        engine::dataset_by_name(size).unwrap_or_else(|| die("unknown dataset size"))
    });
    let kernels = flags
        .list("kernels", "kernel", Kernel::by_name)
        .unwrap_or_else(|| Kernel::ALL.to_vec());
    let policies = flags
        .policies()
        .unwrap_or_else(|| vec![ReplacementPolicy::Plru]);
    let mut backends = flags
        .list("backends", "backend", Backend::by_name)
        .unwrap_or_else(|| vec![Backend::Classic, Backend::warping()]);
    let threads: Option<usize> = flags.number("threads", "a number");
    // Validated up front (not when the first sampled request runs), so a
    // bad rate fails before any simulation starts.
    let sampling = flags
        .number("sample-rate", "a number in (0, 1]")
        .map(|rate| {
            SamplingOptions::from_rate(rate).unwrap_or_else(|e| die(&format!("--sample-rate: {e}")))
        });
    let warmup: Option<u32> = flags.number("warmup", "a non-negative number of intervals");
    let levels = flags
        .get("levels")
        .map_or_else(LevelsSpec::default, |spec| {
            parse_levels(spec).unwrap_or_else(|e| die(&e))
        });
    // The sampling knobs apply to the sampled backend only.
    for backend in &mut backends {
        if let Backend::Sampled(options) = backend {
            *options = sampling.unwrap_or(*options);
            if let Some(warmup) = warmup {
                *options = options.with_warmup(warmup);
            }
        }
    }
    let config = ExperimentConfig::at(dataset).with_kernels(kernels);
    let json = flags.has("json");
    match name {
        "verify" => verify(&config),
        "grid" => grid(&config, &policies, &backends, &levels, threads, json),
        "all" => FIGURES.iter().for_each(|(_, figure)| figure(&config, json)),
        _ => match FIGURES.iter().find(|(figure, _)| *figure == name) {
            Some((_, figure)) => figure(&config, json),
            None => {
                print_usage();
                std::process::exit(2);
            }
        },
    }
}

/// The memory-system geometry of a grid run: one `(size, assoc, line)`
/// triple per cache level, innermost first.  The replacement policy is
/// filled in per grid row.
struct LevelsSpec {
    geometries: Vec<Geometry>,
}

/// One cache level's `(size, assoc, line)`, in bytes and ways.
type Geometry = (u64, usize, u64);

/// The named `--levels` presets; `l1`, the test system's L1 alone, is the
/// default.
const LEVEL_PRESETS: [(&str, &[Geometry]); 3] = [
    ("l1", &[(32 << 10, 8, 64)]),
    ("l1l2", &[(32 << 10, 8, 64), (1 << 20, 16, 64)]),
    (
        "l1l2l3",
        &[(32 << 10, 8, 64), (1 << 20, 16, 64), (8 << 20, 16, 64)],
    ),
];

impl Default for LevelsSpec {
    fn default() -> Self {
        LevelsSpec {
            geometries: LEVEL_PRESETS[0].1.to_vec(),
        }
    }
}

impl LevelsSpec {
    /// Instantiates the geometry with one replacement policy at all levels.
    fn memory(&self, policy: ReplacementPolicy) -> MemoryConfig {
        let levels: Vec<CacheConfig> = self
            .geometries
            .iter()
            .map(|&(size, assoc, line)| CacheConfig::new(size, assoc, line, policy))
            .collect();
        MemoryConfig::new(levels).unwrap_or_else(|e| die(&format!("invalid --levels spec: {e}")))
    }
}

/// Parses a `--levels` value: either a preset name (`l1`, `l1l2`, `l1l2l3`)
/// or a comma-separated list of `[name:]size:assoc:line_size` levels.
fn parse_levels(spec: &str) -> Result<LevelsSpec, String> {
    if spec.is_empty() {
        return Err("--levels expects a spec, e.g. l1:32K:8:64,l2:256K:8:64".to_string());
    }
    if let Some((_, geometries)) = LEVEL_PRESETS.iter().find(|(name, _)| *name == spec) {
        let geometries = geometries.to_vec();
        return Ok(LevelsSpec { geometries });
    }
    let mut geometries = Vec::new();
    for level in spec.split(',') {
        let fields: Vec<&str> = level.split(':').collect();
        // An optional leading `l1`-style name is documentation only.
        let fields = match fields.as_slice() {
            [name, rest @ ..] if rest.len() == 3 && name.parse::<u64>().is_err() => rest,
            rest => rest,
        };
        let [size, assoc, line] = fields else {
            return Err(format!(
                "level `{level}` must be [name:]size:assoc:line_size (e.g. l1:32K:8:64)"
            ));
        };
        let size = parse_size(size)
            .ok_or_else(|| format!("invalid cache size `{size}` in level `{level}`"))?;
        let assoc: usize = assoc
            .parse()
            .map_err(|_| format!("invalid associativity `{assoc}` in level `{level}`"))?;
        let line = parse_size(line)
            .ok_or_else(|| format!("invalid line size `{line}` in level `{level}`"))?;
        if size == 0 || assoc == 0 || line == 0 {
            return Err(format!("level `{level}` has a zero parameter"));
        }
        geometries.push((size, assoc, line));
    }
    Ok(LevelsSpec { geometries })
}

/// Parses a byte count with an optional `K`/`M`/`G` suffix.
fn parse_size(text: &str) -> Option<u64> {
    let text = text.trim();
    let (digits, multiplier) = match text.as_bytes().last()? {
        b'k' | b'K' => (&text[..text.len() - 1], 1024),
        b'm' | b'M' => (&text[..text.len() - 1], 1024 * 1024),
        b'g' | b'G' => (&text[..text.len() - 1], 1024 * 1024 * 1024),
        _ => (text, 1),
    };
    digits
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(multiplier))
}

/// Fans a kernel × policy × backend grid out through [`Engine::run_batch`]
/// and prints one row (or JSON report) per request.  Backends that cannot
/// serve a combination — e.g. `polycache` on a single-level memory — show
/// up as error rows rather than aborting the batch.
fn grid(
    config: &ExperimentConfig,
    policies: &[ReplacementPolicy],
    backends: &[Backend],
    levels: &LevelsSpec,
    threads: Option<usize>,
    json: bool,
) {
    let kernels: Vec<KernelSpec> = config
        .kernels
        .iter()
        .map(|&kernel| KernelSpec::polybench(kernel, config.dataset))
        .collect();
    let memories: Vec<MemoryConfig> = policies
        .iter()
        .map(|&policy| levels.memory(policy))
        .collect();
    let requests = SimRequest::grid(&kernels, &memories, backends);
    let mut engine = Engine::new();
    if let Some(threads) = threads {
        engine = engine.with_threads(threads);
    }
    let reports = engine.run_batch(&requests);

    if json {
        let ok: Vec<_> = reports.iter().filter_map(|r| r.as_ref().ok()).collect();
        println!(
            "{}",
            serde_json::to_string_pretty(&ok).expect("reports serialise")
        );
        for (request, report) in requests.iter().zip(&reports) {
            if let Err(e) = report {
                eprintln!("{}/{}: {e}", request.kernel.name(), request.backend);
            }
        }
        return;
    }
    println!(
        "{:<22} {:<10} {:<14} {:>14} {:>12} {:>10} {:>7} {:>7} {:>8} {:>7} {:>8} {:>9}",
        "kernel",
        "backend",
        "policy",
        "LL misses",
        "accesses",
        "sim[ms]",
        "exact",
        "warps",
        "fp hits",
        "keys",
        "renorms",
        "warp[µs]"
    );
    for (request, report) in requests.iter().zip(&reports) {
        match report {
            Ok(report) => {
                // Warping telemetry of the two-phase match pipeline; `-`
                // for the other backends, so every row has the same field
                // count regardless of which telemetry knobs are on and
                // column-oriented consumers (awk, cut) stay aligned.
                let [warps, fp_hits, keys, renorms, warp_us] = match report.warping {
                    Some(w) => [
                        w.warps.to_string(),
                        w.fingerprint_hits.to_string(),
                        w.exact_key_builds.to_string(),
                        w.stale_label_renorms.to_string(),
                        format!("{:.1}", w.warp_apply_ns as f64 / 1e3),
                    ],
                    None => ["-"; 5].map(String::from),
                };
                println!(
                    "{:<22} {:<10} {:<14} {:>14} {:>12} {:>10.2} {:>7} {:>7} {:>8} {:>7} {:>8} {:>9}",
                    report.kernel,
                    report.backend,
                    request.memory.l1().policy().label(),
                    report.result.last_level_misses(),
                    report.result.accesses,
                    report.sim_ms,
                    report.exact,
                    warps,
                    fp_hits,
                    keys,
                    renorms,
                    warp_us
                )
            }
            Err(e) => println!(
                "{:<22} {:<10} {:<14} error: {e}",
                request.kernel.name(),
                request.backend,
                request.memory.l1().policy().label(),
            ),
        }
    }
}

/// The `explore` subcommand: sweep a parametric kernel family's bindings ×
/// memory hierarchies × replacement policies through the serving layer's
/// worker pool, stream per-point results as they finish, and print the
/// Pareto front of (tile configuration, per-level miss counts) for every
/// hierarchy × policy combination.
fn explore_command(flags: &Flags) {
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Instant;

    let max_error: Option<u64> = flags.number("max-error", "a positive miss count");
    if max_error == Some(0) {
        die("--max-error expects a positive miss count");
    }
    let policies = flags
        .policies()
        .unwrap_or_else(|| vec![ReplacementPolicy::Lru, ReplacementPolicy::Plru]);
    let mut backend = flags.get("backend").map_or_else(Backend::warping, |name| {
        Backend::by_name(name).unwrap_or_else(|| die("--backend expects a backend name"))
    });
    let workers: Option<usize> = flags.number("workers", "a number");
    let family_name = flags.get("name").unwrap_or("tiled-gemm");
    let json = flags.has("json");
    let code = match flags.get("template") {
        Some(path) => std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read template `{path}`: {e}"))),
        None => polybench::parametric::TILED_GEMM.to_string(),
    };
    let sweep = parse_sweep(flags.get("sweep").unwrap_or("TI=4,8,16,32;TJ=4,8,16,32"))
        .unwrap_or_else(|e| die(&e));
    let fixed = scop::ParamBindings::parse(flags.get("bind").unwrap_or("NI=32,NJ=32,NK=32"))
        .unwrap_or_else(|e| die(&format!("invalid --bind spec: {e}")));
    let hierarchies: Vec<(String, LevelsSpec)> = flags
        .get("hierarchies")
        .unwrap_or("l1;l1l2")
        .split(';')
        .map(|spec| {
            let spec = spec.trim();
            (
                spec.to_string(),
                parse_levels(spec).unwrap_or_else(|e| die(&e)),
            )
        })
        .collect();
    if hierarchies.is_empty() || policies.is_empty() {
        die("explore needs at least one hierarchy and one policy");
    }
    if let Some(target) = max_error {
        backend = match backend {
            Backend::Sampled(options) => Backend::Sampled(options.with_max_error(target)),
            _ => die("--max-error only applies to `--backend sampled`"),
        };
    }
    let latencies = flags
        .get("latencies")
        .map(|spec| parse_latencies(spec).unwrap_or_else(|e| die(&e)));
    if let Some(model) = &latencies {
        let deepest = hierarchies
            .iter()
            .map(|(_, spec)| spec.memory(policies[0]).depth())
            .max()
            .unwrap_or(0);
        if model.levels.len() < deepest {
            die(&format!(
                "--latencies names {} cache levels but the deepest hierarchy has {}",
                model.levels.len(),
                deepest
            ));
        }
    }

    let mut config = serve::ServeConfig::from_env();
    if let Some(workers) = workers {
        config.workers = workers;
    }
    config
        .validate()
        .unwrap_or_else(|e| die(&format!("invalid serve config: {e}")));
    let service = Arc::new(serve::SimService::new(config));
    let registered = service
        .register_family(family_name, &code)
        .unwrap_or_else(|e| die(&e));
    if !json {
        println!(
            "family {} ({}) over params [{}]",
            registered.family,
            family_name,
            registered.params.join(", ")
        );
    }

    // One point per swept-binding combination × hierarchy × policy.
    struct Point {
        sweep_key: String,
        hierarchy: String,
        policy: ReplacementPolicy,
        request: SimRequest,
    }
    let combos = cartesian(&sweep);
    let mut points = Vec::new();
    for (hierarchy, spec) in &hierarchies {
        for &policy in &policies {
            let memory = spec.memory(policy);
            for combo in &combos {
                let mut bindings: Vec<(String, i64)> = fixed
                    .iter()
                    .map(|(name, value)| (name.to_string(), value))
                    .collect();
                bindings.extend(combo.iter().cloned());
                let sweep_key = combo
                    .iter()
                    .map(|(name, value)| format!("{name}={value}"))
                    .collect::<Vec<_>>()
                    .join(",");
                points.push(Point {
                    sweep_key,
                    hierarchy: hierarchy.clone(),
                    policy,
                    request: SimRequest::new(
                        KernelSpec::parametric(family_name, &code, bindings),
                        memory.clone(),
                        backend,
                    ),
                });
            }
        }
    }

    if !json {
        println!(
            "{:<20} {:<24} {:<14} {:>10} {:<20} {:>12} {:>10}",
            "tiles", "hierarchy", "policy", "sim[ms]", "misses/level", "est[cyc]", "served"
        );
    }

    // Per-point validation: an unsatisfiable binding (zero/negative value,
    // a template that fails to instantiate, an empty iteration domain)
    // becomes a streamed error row for that grid point; the rest of the
    // sweep proceeds.
    let error_row = |point: &Point, reason: &dyn std::fmt::Display| {
        let (tiles, hierarchy) = (&point.sweep_key, &point.hierarchy);
        let policy = point.policy.label();
        if json {
            eprintln!("{tiles} on {hierarchy}/{policy}: {reason}");
        } else {
            println!("{tiles:<20} {hierarchy:<24} {policy:<14} error: {reason}");
        }
    };
    let point_errors: Vec<Option<String>> = points
        .iter()
        .map(|point| validate_point(&point.request).err())
        .collect();
    for (point, reason) in points.iter().zip(&point_errors) {
        if let Some(reason) = reason {
            error_row(point, reason);
        }
    }

    // Submit the valid points to the service's worker pool in grid
    // order; rows print as points finish, so they may arrive out of order.
    // A point whose simulation fails, a panic included, prints an error row.
    let (tx, rx) = mpsc::channel();
    for index in (0..points.len()).filter(|&i| point_errors[i].is_none()) {
        let service = service.clone();
        let request = points[index].request.clone();
        let tx = tx.clone();
        let enqueued = Instant::now();
        service.clone().pool().spawn(move || {
            let queue_ns = enqueued.elapsed().as_nanos() as u64;
            let outcome = service.submit_queued(&request, Some(queue_ns));
            let _ = tx.send((index, outcome));
        });
    }
    drop(tx);
    let mut results: Vec<Option<engine::SimReport>> = points.iter().map(|_| None).collect();
    for (index, outcome) in rx {
        let point = &points[index];
        match outcome {
            Ok((report, served)) => {
                if !json {
                    let misses = report
                        .result
                        .levels
                        .iter()
                        .map(|level| level.misses.to_string())
                        .collect::<Vec<_>>()
                        .join("/");
                    let cycles = latencies.as_ref().map_or(String::from("-"), |model| {
                        estimated_cycles(&report, model).to_string()
                    });
                    println!(
                        "{:<20} {:<24} {:<14} {:>10.2} {:<20} {:>12} {:>10}",
                        point.sweep_key,
                        point.hierarchy,
                        point.policy.label(),
                        report.sim_ms,
                        misses,
                        cycles,
                        served.label()
                    );
                }
                results[index] = Some(report);
            }
            Err(e) => error_row(point, &e),
        }
    }

    // Pareto fronts: per hierarchy × policy, the tile configurations whose
    // per-level miss-count vectors are not dominated (another config at
    // most equal on every level and strictly better on one).
    let mut json_points = Vec::new();
    let mut json_fronts = Vec::new();
    let mut json_time_fronts = Vec::new();
    for (hierarchy, _) in &hierarchies {
        for &policy in &policies {
            let group: Vec<(usize, Vec<u64>)> = points
                .iter()
                .enumerate()
                .filter(|(_, point)| point.hierarchy == *hierarchy && point.policy == policy)
                .filter_map(|(index, _)| {
                    results[index].as_ref().map(|report| {
                        (
                            index,
                            report.result.levels.iter().map(|l| l.misses).collect(),
                        )
                    })
                })
                .collect();
            let front: Vec<(usize, &Vec<u64>)> = group
                .iter()
                .filter(|(_, misses)| !group.iter().any(|(_, other)| dominates(other, misses)))
                .map(|entry| (entry.0, &entry.1))
                .collect();
            // The front that actually matters for picking a tiling: the
            // cheapest configurations under the cycle-cost model, not just
            // the per-level miss trade-off.
            let time_front: Vec<(usize, u64)> = latencies
                .as_ref()
                .map(|model| {
                    let costed: Vec<(usize, u64)> = group
                        .iter()
                        .map(|(index, _)| {
                            let report = results[*index].as_ref().expect("grouped on Some");
                            (*index, estimated_cycles(report, model))
                        })
                        .collect();
                    let best = costed.iter().map(|(_, c)| *c).min();
                    costed
                        .into_iter()
                        .filter(|(_, cycles)| Some(*cycles) == best)
                        .collect()
                })
                .unwrap_or_default();
            if json {
                for (index, misses) in &group {
                    let report = results[*index].as_ref().expect("grouped on Some");
                    let mut fields = vec![
                        ("tiles", points[*index].sweep_key.serialize_value()),
                        ("hierarchy", hierarchy.serialize_value()),
                        ("policy", policy.label().serialize_value()),
                        ("misses", misses.serialize_value()),
                    ];
                    if let Some(model) = &latencies {
                        let cycles = estimated_cycles(report, model);
                        fields.push(("est_cycles", cycles.serialize_value()));
                    }
                    if let Some(approx) = &report.approx {
                        let bounds = approx.per_level_error_bound.serialize_value();
                        fields.push(("error_bound", bounds));
                    }
                    json_points.push(object(fields));
                }
                let front_object = |indices: Vec<usize>| {
                    let tiles: Vec<&String> =
                        indices.iter().map(|&i| &points[i].sweep_key).collect();
                    object(vec![
                        ("hierarchy", hierarchy.serialize_value()),
                        ("policy", policy.label().serialize_value()),
                        ("front", tiles.serialize_value()),
                    ])
                };
                json_fronts.push(front_object(front.iter().map(|e| e.0).collect()));
                if latencies.is_some() {
                    json_time_fronts.push(front_object(time_front.iter().map(|e| e.0).collect()));
                }
            } else {
                println!(
                    "\npareto front ({hierarchy}, {}): {} of {} tile configs",
                    policy.label(),
                    front.len(),
                    group.len()
                );
                for (index, misses) in &front {
                    println!(
                        "  {:<20} misses {}",
                        points[*index].sweep_key,
                        misses
                            .iter()
                            .map(u64::to_string)
                            .collect::<Vec<_>>()
                            .join("/")
                    );
                }
                if !time_front.is_empty() {
                    println!(
                        "time front ({hierarchy}, {}): {} of {} tile configs",
                        policy.label(),
                        time_front.len(),
                        group.len()
                    );
                    for (index, cycles) in &time_front {
                        println!("  {:<20} est {} cycles", points[*index].sweep_key, cycles);
                    }
                }
            }
        }
    }

    let stats = service.stats();
    if json {
        let json_errors: Vec<serde::Value> = points
            .iter()
            .zip(&point_errors)
            .filter_map(|(point, reason)| {
                reason.as_ref().map(|reason| {
                    object(vec![
                        ("tiles", point.sweep_key.serialize_value()),
                        ("hierarchy", point.hierarchy.serialize_value()),
                        ("policy", point.policy.label().serialize_value()),
                        ("error", reason.serialize_value()),
                    ])
                })
            })
            .collect();
        let mut output = vec![
            ("family", registered.family.serialize_value()),
            ("points", json_points.serialize_value()),
            ("errors", json_errors.serialize_value()),
            ("pareto", json_fronts.serialize_value()),
        ];
        if latencies.is_some() {
            output.push(("pareto_time", json_time_fronts.serialize_value()));
        }
        output.push(("calibration", service.calibration_stats().serialize_value()));
        output.push(("serve_stats", stats.serialize_value()));
        println!(
            "{}",
            serde_json::to_string_pretty(&object(output)).expect("explore output serialises")
        );
    } else {
        println!(
            "\n{} points; family requests {}, family cache hits {}, simulated {}",
            points.len(),
            stats.family_requests,
            stats.family_hits,
            stats.simulated
        );
        println!(
            "warm paths: calibration hits {}, misses {}, fallbacks {}",
            stats.calibration_hits, stats.calibration_misses, stats.calibration_fallbacks
        );
    }
}

/// A JSON object with the given fields, in order.
fn object(fields: Vec<(&str, serde::Value)>) -> serde::Value {
    serde::Value::Object(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// Cycle weights for the estimated-wall-time front: one latency per cache
/// level (in hierarchy order) plus the memory latency behind the last
/// level.
struct LatencyModel {
    levels: Vec<u64>,
    memory: u64,
}

/// Parses a `--latencies` spec: comma-separated `L<n>:cycles` entries plus
/// an optional `MEM:cycles` (default 100), e.g. `L1:4,L2:14,MEM:120`.
fn parse_latencies(spec: &str) -> Result<LatencyModel, String> {
    let mut levels: Vec<Option<u64>> = Vec::new();
    let mut memory = 100u64;
    for entry in spec.split(',') {
        let entry = entry.trim();
        let (label, cycles) = entry
            .split_once(':')
            .ok_or_else(|| format!("latency entry `{entry}` must be LABEL:cycles"))?;
        let cycles: u64 = cycles
            .trim()
            .parse()
            .map_err(|_| format!("invalid cycle count `{cycles}` for `{label}`"))?;
        let label = label.trim().to_ascii_uppercase();
        if label == "MEM" {
            memory = cycles;
            continue;
        }
        let level: usize = label
            .strip_prefix('L')
            .and_then(|n| n.parse().ok())
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("latency label `{label}` must be L1, L2, ... or MEM"))?;
        if levels.len() < level {
            levels.resize(level, None);
        }
        levels[level - 1] = Some(cycles);
    }
    let levels = levels
        .iter()
        .enumerate()
        .map(|(index, cycles)| {
            cycles.ok_or_else(|| format!("missing latency for L{} in `{spec}`", index + 1))
        })
        .collect::<Result<Vec<u64>, String>>()?;
    if levels.is_empty() {
        return Err("--latencies needs at least L1:cycles".to_string());
    }
    Ok(LatencyModel { levels, memory })
}

/// Estimated wall time of a report under the cycle-cost model: every hit
/// at level *i* costs that level's latency, and misses out of the last
/// level cost the memory latency.
fn estimated_cycles(report: &engine::SimReport, model: &LatencyModel) -> u64 {
    let mut cycles = 0u64;
    let mut upstream = report.result.accesses;
    for (level, stats) in report.result.levels.iter().enumerate() {
        let latency = model.levels.get(level).copied().unwrap_or(model.memory);
        let hits = upstream.saturating_sub(stats.misses);
        cycles = cycles.saturating_add(hits.saturating_mul(latency));
        upstream = stats.misses;
    }
    cycles.saturating_add(upstream.saturating_mul(model.memory))
}

/// Pre-validates one sweep point: bindings must be positive, the template
/// must instantiate, and the instance must have a non-empty iteration
/// domain.  A failure is that point's streamed error row, not a sweep
/// abort.
fn validate_point(request: &SimRequest) -> Result<(), String> {
    for (name, value) in request.kernel.param_bindings().iter() {
        if value <= 0 {
            return Err(format!(
                "unsatisfiable binding {name}={value}: tile and problem sizes must be positive"
            ));
        }
    }
    let scop = request
        .kernel
        .build()
        .map_err(|e| format!("binding rejected: {e}"))?;
    if scop::exceeds_access_count(&scop, 0) {
        Ok(())
    } else {
        Err("unsatisfiable bindings: the instance performs no memory accesses".to_string())
    }
}

/// `a` dominates `b` when it is at most equal on every level and strictly
/// better on at least one.
fn dominates(a: &[u64], b: &[u64]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x <= y)
        && a.iter().zip(b).any(|(x, y)| x < y)
}

/// Parses a `--sweep` spec: `;`-separated `NAME=v1,v2,...` entries.
fn parse_sweep(spec: &str) -> Result<Vec<(String, Vec<i64>)>, String> {
    let mut sweep = Vec::new();
    for entry in spec.split(';') {
        let (name, values) = entry
            .split_once('=')
            .ok_or_else(|| format!("sweep entry `{entry}` must be NAME=v1,v2,..."))?;
        let values = values
            .split(',')
            .map(|value| {
                value
                    .trim()
                    .parse::<i64>()
                    .map_err(|_| format!("invalid sweep value `{value}` for `{name}`"))
            })
            .collect::<Result<Vec<i64>, String>>()?;
        if values.is_empty() {
            return Err(format!("sweep entry `{entry}` has no values"));
        }
        sweep.push((name.trim().to_string(), values));
    }
    if sweep.is_empty() {
        return Err("--sweep expects at least one NAME=v1,v2 entry".to_string());
    }
    Ok(sweep)
}

/// The cartesian product of the swept parameter values, in spec order.
fn cartesian(sweep: &[(String, Vec<i64>)]) -> Vec<Vec<(String, i64)>> {
    let mut combos = vec![Vec::new()];
    for (name, values) in sweep {
        let mut next = Vec::with_capacity(combos.len() * values.len());
        for combo in &combos {
            for &value in values {
                let mut extended = combo.clone();
                extended.push((name.clone(), value));
                next.push(extended);
            }
        }
        combos = next;
    }
    combos
}

/// The `serve` subcommand: the JSON-lines simulation service over stdin or
/// a TCP listener.
fn serve_command(flags: &Flags) {
    use std::io::Write as _;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let mut config = serve::ServeConfig::from_env();
    if let Some(capacity) = flags.number("cache-cap", "an entry count") {
        config.cache_capacity = capacity;
    }
    if let Some(workers) = flags.number("workers", "a number") {
        config.workers = workers;
    }
    if let Some(budget) = flags.number("exact-budget", "an access count") {
        config.exact_budget = Some(budget);
    }
    let options = serve::WireOptions {
        debug_hash: flags.has("debug-hash"),
    };
    // Degenerate configurations (`--workers 0`, `--cache-cap 0`) are caught
    // here, before any socket is bound, with an explanation of what the
    // zero would break.
    config.validate().unwrap_or_else(|e| die(&e));
    let service = Arc::new(serve::SimService::new(config));

    let Some(addr) = flags.get("addr") else {
        // Stdin mode: one session, envelopes (and the final stats line) on
        // stdout.
        let stdin = std::io::stdin();
        serve::serve_lines_with(&service, stdin.lock(), std::io::stdout(), options)
            .unwrap_or_else(|e| die(&format!("serving stdin failed: {e}")));
        return;
    };

    let listener = std::net::TcpListener::bind(addr)
        .unwrap_or_else(|e| die(&format!("cannot listen on {addr}: {e}")));
    let local = listener
        .local_addr()
        .unwrap_or_else(|e| die(&format!("no local address: {e}")));
    // Scripts (and CI) bind port 0 and scrape the actual port from here.
    println!("serving on {local}");
    let _ = std::io::stdout().flush();
    // Nonblocking accept + poll, so a shutdown requested on one connection
    // stops the accept loop without needing a final wake-up connection.
    listener
        .set_nonblocking(true)
        .unwrap_or_else(|e| die(&format!("cannot poll the listener: {e}")));
    let stop = Arc::new(AtomicBool::new(false));
    let mut sessions = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                stream
                    .set_nonblocking(false)
                    .unwrap_or_else(|e| die(&format!("cannot configure a connection: {e}")));
                let reader = std::io::BufReader::new(
                    stream
                        .try_clone()
                        .unwrap_or_else(|e| die(&format!("cannot split a connection: {e}"))),
                );
                let service = service.clone();
                let stop = stop.clone();
                sessions.push(std::thread::spawn(move || {
                    match serve::serve_lines_with(&service, reader, stream, options) {
                        Ok((_stats, shutdown)) => {
                            if shutdown {
                                stop.store(true, Ordering::SeqCst);
                            }
                        }
                        Err(e) => eprintln!("connection failed: {e}"),
                    }
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(e) => die(&format!("accept failed: {e}")),
        }
    }
    for session in sessions {
        let _ = session.join();
    }
    // The service-lifetime summary, like the per-session trailer lines.
    println!(
        "{}",
        serde_json::to_string(&service.stats()).expect("stats serialise")
    );
}

fn verify(config: &ExperimentConfig) {
    let mut failures = 0;
    for &kernel in &config.kernels {
        for policy in ReplacementPolicy::ALL {
            let ok = verify_kernel(kernel, config.dataset, policy);
            if !ok {
                failures += 1;
            }
            println!(
                "{:<16} {:<14} {}",
                kernel.name(),
                policy.label(),
                if ok { "exact" } else { "MISMATCH" }
            );
        }
    }
    if failures > 0 {
        eprintln!("{failures} mismatches");
        std::process::exit(1);
    }
}

fn next_size(dataset: Dataset) -> Dataset {
    match dataset {
        Dataset::Mini => Dataset::Small,
        Dataset::Small => Dataset::Medium,
        Dataset::Medium => Dataset::Large,
        Dataset::Large | Dataset::ExtraLarge => Dataset::ExtraLarge,
    }
}

fn emit<R: serde::Serialize>(json: bool, title: &str, rows: &[R], text: impl Fn(&[R])) {
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(rows).expect("rows serialise")
        );
    } else {
        println!("\n== {title} ==");
        text(rows);
    }
}

fn fig6_text(rows: &[Fig6Row]) {
    println!(
        "{:<16} {:<14} {:>12} {:>12} {:>9} {:>14} {:>7}",
        "kernel", "policy", "nonwarp[ms]", "warp[ms]", "speedup", "nonwarped[%]", "exact"
    );
    for r in rows {
        println!(
            "{:<16} {:<14} {:>12.2} {:>12.2} {:>9.2} {:>14.3} {:>7}",
            r.kernel,
            r.policy,
            r.nonwarping_ms,
            r.warping_ms,
            r.speedup,
            r.non_warped_share * 100.0,
            r.exact
        );
    }
}

fn fig7_text(rows: &[Fig7Row]) {
    println!(
        "{:<16} {:<12} {:>14} {:>12}",
        "kernel", "dataset", "nonwarp[ms]", "warp[ms]"
    );
    for r in rows {
        println!(
            "{:<16} {:<12} {:>14.2} {:>12.2}",
            r.kernel, r.dataset, r.nonwarping_ms, r.warping_ms
        );
    }
}

fn fig8_text(rows: &[Fig8Row]) {
    println!(
        "{:<16} {:<12} {:>12} {:>14} {:>9} {:>7}",
        "kernel", "dataset", "warp[ms]", "haystack[ms]", "speedup", "exact"
    );
    for r in rows {
        println!(
            "{:<16} {:<12} {:>12.2} {:>14.2} {:>9.3} {:>7}",
            r.kernel, r.dataset, r.warping_ms, r.haystack_ms, r.speedup, r.exact
        );
    }
}

fn fig9_text(rows: &[Fig9Row]) {
    println!(
        "{:<16} {:>12} {:>15} {:>9} {:>7}",
        "kernel", "warp[ms]", "polycache[ms]", "speedup", "exact"
    );
    for r in rows {
        println!(
            "{:<16} {:>12.2} {:>15.2} {:>9.3} {:>7}",
            r.kernel, r.warping_ms, r.polycache_ms, r.speedup, r.exact
        );
    }
}

fn fig10_text(rows: &[Fig10Row]) {
    println!(
        "{:<16} {:>12} {:>10} {:>12} {:>14} {:>8}",
        "kernel", "LRU misses", "FA-LRU", "Pseudo-LRU", "Quad-age LRU", "FIFO"
    );
    for r in rows {
        println!(
            "{:<16} {:>12} {:>10.3} {:>12.3} {:>14.3} {:>8.3}",
            r.kernel, r.lru_misses, r.fully_associative_lru, r.pseudo_lru, r.quad_age_lru, r.fifo
        );
    }
}

fn fig11_text(rows: &[Fig11Row]) {
    println!(
        "{:<16} {:>12} {:>11} {:>9} {:>11} {:>9} {:>11} {:>9}",
        "kernel", "measured", "dinero|Δ|", "rel[%]", "warp|Δ|", "rel[%]", "haystk|Δ|", "rel[%]"
    );
    for r in rows {
        println!(
            "{:<16} {:>12} {:>11} {:>9.1} {:>11} {:>9.1} {:>11} {:>9.1}",
            r.kernel,
            r.measured,
            r.dinero_abs,
            r.dinero_rel,
            r.warping_abs,
            r.warping_rel,
            r.haystack_abs,
            r.haystack_rel
        );
    }
}

fn fig12_text(rows: &[Fig12Row]) {
    println!(
        "{:<16} {:>12} {:>14} {:>9}",
        "kernel", "dinero[ms]", "nonwarp[ms]", "speedup"
    );
    for r in rows {
        println!(
            "{:<16} {:>12.2} {:>14.2} {:>9.2}",
            r.kernel, r.dinero_ms, r.nonwarping_ms, r.speedup
        );
    }
}

/// Prints the usage text generated from [`FIGURES`] and [`FLAGS`].
fn print_usage() {
    let experiments: Vec<&str> = FIGURES
        .iter()
        .map(|(name, _)| *name)
        .chain(["verify", "grid", "all"])
        .collect();
    let synopses = [
        (Experiment, format!("<{}>", experiments.join("|"))),
        (Explore, "explore".to_string()),
        (Serve, "serve".to_string()),
    ];
    let mut usage = String::new();
    for (command, synopsis) in synopses {
        usage += &format!("usage: harness {synopsis} [flags]\n");
        for flag in FLAGS.iter().filter(|f| f.commands.contains(&command)) {
            let spelled = match flag.value {
                Some(value) => format!("--{} {value}", flag.name),
                None => format!("--{}", flag.name),
            };
            // Long spellings put their help text on a line of its own.
            if spelled.len() > 30 {
                usage += &format!("  {spelled}\n{:33}{}\n", "", flag.help);
            } else {
                usage += &format!("  {spelled:<30} {}\n", flag.help);
            }
        }
    }
    eprint!("{usage}");
}

fn die(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}
