//! Seeded workload generation.
//!
//! Every request list and arrival schedule is a pure function of the
//! workload and `--seed`; the library only ever sees the generated
//! requests.  The *catalog* of distinct requests of a workload is fixed
//! (so golden counts can be kept with the benchmark); the seed decides the
//! order, the popularity of repeats, the spelling of twins and the arrival
//! times.

use cache_model::{CacheConfig, MemoryConfig, ReplacementPolicy};
use engine::{Backend, KernelSpec, SimRequest};
use polybench::{Dataset, Kernel};

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    ClassicPolybench,
    WarpingPolybench,
    ServeFamily,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ClassicPolybench,
        Workload::WarpingPolybench,
        Workload::ServeFamily,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ClassicPolybench => "classic-polybench",
            Workload::WarpingPolybench => "warping-polybench",
            Workload::ServeFamily => "serve-family",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The latency percentile reported as `latency_tail_ms`: the highest
    /// percentile with at least ten samples beyond it at the run's request
    /// count (see [`crate::stats::tail_percentile`] and the minimum counts
    /// the runners enforce).
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::ClassicPolybench => 98.0,
            Workload::WarpingPolybench => 90.0,
            Workload::ServeFamily => 95.0,
        }
    }
}

/// A memory-system preset: the harness's `l1`, `l1l2` and `l1l2l3`
/// geometries with one replacement policy at every level.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Preset {
    L1,
    L1L2,
    L1L2L3,
}

impl Preset {
    pub fn name(self) -> &'static str {
        match self {
            Preset::L1 => "l1",
            Preset::L1L2 => "l1l2",
            Preset::L1L2L3 => "l1l2l3",
        }
    }

    pub fn memory(self, policy: ReplacementPolicy) -> MemoryConfig {
        let geometries: &[u64] = match self {
            Preset::L1 => &[32 << 10],
            Preset::L1L2 => &[32 << 10, 1 << 20],
            Preset::L1L2L3 => &[32 << 10, 1 << 20, 8 << 20],
        };
        let levels = geometries
            .iter()
            .enumerate()
            .map(|(i, &size)| CacheConfig::new(size, if i == 0 { 8 } else { 16 }, 64, policy))
            .collect();
        MemoryConfig::new(levels).expect("preset geometries are valid")
    }
}

pub fn policy_name(policy: ReplacementPolicy) -> &'static str {
    match policy {
        ReplacementPolicy::Lru => "lru",
        ReplacementPolicy::Fifo => "fifo",
        ReplacementPolicy::Plru => "plru",
        ReplacementPolicy::Qlru => "qlru",
    }
}

/// What a cell simulates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Program {
    PolyBench(Kernel, Dataset),
    /// `polybench::parametric::TILED_GEMM` at `[NI, NJ, NK, TI, TJ]`.
    TiledGemm([i64; 5]),
}

impl Program {
    /// The name golden counts are kept under.
    pub fn name(self) -> String {
        match self {
            Program::PolyBench(kernel, dataset) => format!("{}@{}", kernel.name(), dataset.name()),
            Program::TiledGemm([ni, nj, nk, ti, tj]) => {
                format!("tiled_gemm[{ni},{nj},{nk},{ti},{tj}]")
            }
        }
    }

    /// The library's own spelling of the kernel: a PolyBench spec, or an
    /// instance of the parametric family.
    pub fn spec(self) -> KernelSpec {
        match self {
            Program::PolyBench(kernel, dataset) => KernelSpec::polybench(kernel, dataset),
            Program::TiledGemm(values) => KernelSpec::parametric(
                "tiled_gemm",
                polybench::parametric::TILED_GEMM,
                ["NI", "NJ", "NK", "TI", "TJ"].into_iter().zip(values),
            ),
        }
    }

    /// The constant twin of a family instance, α-renamed (arrays `C`, `A`,
    /// `B` become `Out`, `Lhs`, `Rhs`) so only canonical hashing can tell it
    /// is the same program.
    pub fn twin(self) -> Option<KernelSpec> {
        let Program::TiledGemm([ni, nj, nk, ti, tj]) = self else {
            return None;
        };
        let [ni, nj, nk, ti, tj] = [ni, nj, nk, ti, tj].map(|v| v as u64);
        let code = polybench::parametric::tiled_gemm(ni, nj, nk, ti, tj)
            .replace("C[", "Out[")
            .replace("A[", "Lhs[")
            .replace("B[", "Rhs[");
        Some(KernelSpec::source("tiled_gemm_twin", code))
    }
}

/// One distinct request of a workload's catalog.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Cell {
    pub program: Program,
    pub preset: Preset,
    pub policy: ReplacementPolicy,
    pub backend: Backend,
}

impl Cell {
    /// The key golden counts are kept under (the backend is not part of
    /// it: every exact backend must reproduce the classic counts).
    pub fn golden_key(&self) -> String {
        format!(
            "{}|{}|{}",
            self.program.name(),
            self.preset.name(),
            policy_name(self.policy)
        )
    }

    pub fn request(&self, kernel: KernelSpec) -> SimRequest {
        SimRequest::new(kernel, self.preset.memory(self.policy), self.backend)
    }
}

fn cells(
    programs: &[Program],
    presets: &[Preset],
    policies: &[ReplacementPolicy],
    backend: Backend,
) -> Vec<Cell> {
    let mut out = Vec::new();
    for &program in programs {
        for &preset in presets {
            for &policy in policies {
                out.push(Cell {
                    program,
                    preset,
                    policy,
                    backend,
                });
            }
        }
    }
    out
}

fn polybench(kernels: &[Kernel], dataset: Dataset) -> Vec<Program> {
    kernels
        .iter()
        .map(|&k| Program::PolyBench(k, dataset))
        .collect()
}

use ReplacementPolicy::{Fifo, Lru, Plru, Qlru};

/// The closed-loop catalog of `classic-polybench`: L1-resident (trisolv,
/// durbin) to L2-spilling (lu, fdtd-2d) kernels at SMALL under every
/// policy, on two- and three-level hierarchies.
pub fn classic_cells() -> Vec<Cell> {
    use Kernel::*;
    let kernels = [Trisolv, Durbin, Atax, Mvt, Gemver, Trmm, Syrk, Fdtd2d, Lu];
    cells(
        &polybench(&kernels, Dataset::Small),
        &[Preset::L1L2, Preset::L1L2L3],
        &[Lru, Fifo, Plru, Qlru],
        Backend::Classic,
    )
}

/// The kernels of the warping workload's never-warping slice.
pub const NEVER_WARPING: [Kernel; 6] = [
    Kernel::Gemm,
    Kernel::Atax,
    Kernel::Bicg,
    Kernel::Mvt,
    Kernel::Syrk,
    Kernel::Gesummv,
];

/// The closed-loop catalog of `warping-polybench` (single-level `l1`):
/// warping LRU/FIFO stencils at MEDIUM, PLRU stencils at SMALL (one warp,
/// then symbolic simulation) and never-warping linear algebra at SMALL.
pub fn warping_cells() -> Vec<Cell> {
    use Kernel::*;
    let mut out = cells(
        &polybench(&[Jacobi2d, Seidel2d, Fdtd2d], Dataset::Medium),
        &[Preset::L1],
        &[Lru, Fifo],
        Backend::warping(),
    );
    out.extend(cells(
        &polybench(&[Jacobi2d, Seidel2d, Fdtd2d, Heat3d, Adi], Dataset::Small),
        &[Preset::L1],
        &[Plru],
        Backend::warping(),
    ));
    out.extend(cells(
        &polybench(&NEVER_WARPING, Dataset::Small),
        &[Preset::L1],
        &[Lru],
        Backend::warping(),
    ));
    out
}

/// Whether a warping cell belongs to the never-warping slice.
pub fn is_never_warping(cell: &Cell) -> bool {
    matches!(cell.program, Program::PolyBench(k, Dataset::Small) if NEVER_WARPING.contains(&k))
}

/// Tiled-gemm family instances in the serve catalog.
pub const FAMILY_INSTANCES: usize = 72;

/// The serve-family catalog: [`FAMILY_INSTANCES`] tiled-gemm instances
/// (drawn once from a fixed catalog seed, not from `--seed`) under classic
/// and warping, then sampled PolyBench kernels whose sampled counts really
/// extrapolate.
pub fn serve_cells() -> Vec<Cell> {
    const SIZES: [i64; 4] = [24, 32, 40, 48];
    const TILES: [i64; 3] = [4, 8, 16];
    let mut rng = Rng::new(0x0CA7_A10C);
    let mut out: Vec<Cell> = Vec::new();
    while out.len() < FAMILY_INSTANCES {
        let mut pick = |options: &[i64]| options[rng.below(options.len())];
        let values = [
            pick(&SIZES),
            pick(&SIZES),
            pick(&SIZES),
            pick(&TILES),
            pick(&TILES),
        ];
        let cell = Cell {
            program: Program::TiledGemm(values),
            preset: [Preset::L1, Preset::L1L2][rng.below(2)],
            policy: [Lru, Plru][rng.below(2)],
            backend: [Backend::Classic, Backend::warping()][rng.below(2)],
        };
        if !out.contains(&cell) {
            out.push(cell);
        }
    }
    use Kernel::*;
    out.extend(cells(
        &polybench(&[Gemver, Mvt, Deriche, Ludcmp], Dataset::Small),
        &[Preset::L1],
        &[Lru, Plru],
        Backend::sampled(),
    ));
    out
}

/// The seeded permutation of a closed-loop round: every round runs every
/// cell exactly once, so each run sees the same mix whatever its length.
pub fn round_order(seed: u64, round: u64, cells: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ round);
    let mut order: Vec<usize> = (0..cells).collect();
    rng.shuffle(&mut order);
    order
}

/// One serve-family request: a catalog cell, spelled as its constant twin
/// or as a family instance, due at `due_ns` after the schedule starts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ServeRequest {
    pub cell: usize,
    pub twin: bool,
    pub due_ns: u64,
}

/// Share of tiled-gemm repeats spelled as their α-renamed constant twin.
pub const TWIN_SHARE: f64 = 0.3;

/// The request list of one serve-family segment: every catalog cell is
/// requested once for the first time (in a seeded order), interleaved with
/// repeats of already-seen cells drawn with Zipf-like weights over a
/// seeded popularity ranking.  Arrivals are evenly spaced at `rate` per
/// second with ±50% seeded jitter.
pub fn serve_requests(
    seed: u64,
    segment: u64,
    cells: &[Cell],
    total: usize,
    rate: f64,
) -> Vec<ServeRequest> {
    assert!(
        total >= cells.len(),
        "every cell is requested at least once"
    );
    let mut rng = Rng::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ segment ^ 0x5E_47E);
    let mut first: Vec<usize> = (0..cells.len()).collect();
    rng.shuffle(&mut first);
    let mut rank: Vec<usize> = (0..cells.len()).collect();
    rng.shuffle(&mut rank);
    // Which slots introduce a new cell: the first slot always does.
    let mut is_new = vec![false; total];
    let mut slots: Vec<usize> = (1..total).collect();
    rng.shuffle(&mut slots);
    is_new[0] = true;
    for &slot in slots.iter().take(cells.len() - 1) {
        is_new[slot] = true;
    }
    let gap_ns = 1e9 / rate;
    let mut due = 0.0;
    let mut seen: Vec<usize> = Vec::new();
    let mut out = Vec::with_capacity(total);
    for new in is_new {
        let cell = if new {
            let cell = first[seen.len()];
            seen.push(cell);
            cell
        } else {
            let weights: Vec<f64> = seen.iter().map(|&c| 1.0 / (rank[c] + 1) as f64).collect();
            let mut target = rng.unit() * weights.iter().sum::<f64>();
            let mut chosen = seen[seen.len() - 1];
            for (&c, w) in seen.iter().zip(&weights) {
                if target < *w {
                    chosen = c;
                    break;
                }
                target -= w;
            }
            chosen
        };
        let twin =
            !new && matches!(cells[cell].program, Program::TiledGemm(_)) && rng.unit() < TWIN_SHARE;
        out.push(ServeRequest {
            cell,
            twin,
            due_ns: due as u64,
        });
        due += gap_ns * (0.5 + rng.unit());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(requests: &[ServeRequest]) -> String {
        requests
            .iter()
            .map(|r| format!("{} {} {}\n", r.cell, r.twin, r.due_ns))
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_lists() {
        let cells = serve_cells();
        let a = render(&serve_requests(7, 0, &cells, 600, 50.0));
        let b = render(&serve_requests(7, 0, &cells, 600, 50.0));
        assert_eq!(a.as_bytes(), b.as_bytes());
        assert_eq!(round_order(7, 3, 72), round_order(7, 3, 72));
    }

    #[test]
    fn different_seeds_give_different_lists() {
        let cells = serve_cells();
        assert_ne!(
            render(&serve_requests(1, 0, &cells, 600, 50.0)),
            render(&serve_requests(2, 0, &cells, 600, 50.0))
        );
        assert_ne!(
            render(&serve_requests(1, 0, &cells, 600, 50.0)),
            render(&serve_requests(1, 1, &cells, 600, 50.0))
        );
        assert_ne!(round_order(1, 0, 72), round_order(2, 0, 72));
        assert_ne!(round_order(1, 0, 72), round_order(1, 1, 72));
    }

    #[test]
    fn serve_list_requests_every_cell_and_repeats_the_rest() {
        let cells = serve_cells();
        let requests = serve_requests(3, 0, &cells, 600, 50.0);
        assert_eq!(requests.len(), 600);
        let mut seen = vec![false; cells.len()];
        for (i, r) in requests.iter().enumerate() {
            // A twin always repeats an already-requested family instance.
            assert!(!r.twin || seen[r.cell], "request {i}");
            seen[r.cell] = true;
            if i > 0 {
                assert!(r.due_ns > requests[i - 1].due_ns);
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert!(requests.iter().any(|r| r.twin));
    }

    #[test]
    fn catalogs_are_fixed_and_distinct() {
        assert_eq!(serve_cells(), serve_cells());
        for catalog in [classic_cells(), warping_cells(), serve_cells()] {
            for (i, a) in catalog.iter().enumerate() {
                assert!(!catalog[i + 1..].contains(a), "{a:?} repeats");
            }
        }
        assert_eq!(classic_cells().len(), 72);
        assert_eq!(
            warping_cells().len() % 2,
            1,
            "odd, so p50 sits inside one cell"
        );
    }

    #[test]
    fn twins_rename_every_array() {
        let twin = Program::TiledGemm([24, 32, 40, 4, 8]).twin().unwrap();
        let KernelSpec::Source { code, .. } = twin else {
            panic!("twins are source kernels")
        };
        for old in ["C[", "A[", "B["] {
            assert!(!code.contains(old), "{old} survived in {code}");
        }
    }
}
