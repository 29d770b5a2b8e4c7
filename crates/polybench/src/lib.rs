//! The PolyBench 4.2.1 benchmark kernels as polyhedral SCoPs.
//!
//! The paper evaluates warping cache simulation on the 30 kernels of
//! PolyBench 4.2.1.  This crate expresses every kernel's *measured loop
//! nest* (the `kernel_*` function) in the mini-C dialect of the [`scop`]
//! crate and elaborates it into the tree representation the simulators
//! operate on.  Dataset sizes follow the PolyBench headers; a handful of
//! EXTRALARGE parameters are approximated as documented in DESIGN.md.
//!
//! # Example
//!
//! ```
//! use polybench::{Dataset, Kernel};
//!
//! let scop = Kernel::Jacobi1d.build(Dataset::Mini).unwrap();
//! assert!(scop.access_nodes().count() > 0);
//! assert_eq!(Kernel::ALL.len(), 30);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod parametric;
mod sources_la;
mod sources_other;
mod sources_stencil;

use scop::{elaborate, parse_program, ElaborateOptions, Scop};

/// The PolyBench dataset sizes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Dataset {
    /// MINI_DATASET
    Mini,
    /// SMALL_DATASET
    Small,
    /// MEDIUM_DATASET
    Medium,
    /// LARGE_DATASET (the paper's "L")
    Large,
    /// EXTRALARGE_DATASET (the paper's "XL")
    ExtraLarge,
}

impl Dataset {
    /// All dataset sizes, from smallest to largest.
    pub const ALL: [Dataset; 5] = [
        Dataset::Mini,
        Dataset::Small,
        Dataset::Medium,
        Dataset::Large,
        Dataset::ExtraLarge,
    ];

    /// The PolyBench name of the dataset.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Mini => "MINI",
            Dataset::Small => "SMALL",
            Dataset::Medium => "MEDIUM",
            Dataset::Large => "LARGE",
            Dataset::ExtraLarge => "EXTRALARGE",
        }
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The 30 PolyBench 4.2.1 kernels.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Kernel {
    Correlation,
    Covariance,
    Gemm,
    Gemver,
    Gesummv,
    Symm,
    Syr2k,
    Syrk,
    Trmm,
    TwoMm,
    ThreeMm,
    Atax,
    Bicg,
    Doitgen,
    Mvt,
    Cholesky,
    Durbin,
    Gramschmidt,
    Lu,
    Ludcmp,
    Trisolv,
    Deriche,
    FloydWarshall,
    Nussinov,
    Adi,
    Fdtd2d,
    Heat3d,
    Jacobi1d,
    Jacobi2d,
    Seidel2d,
}

impl Kernel {
    /// All kernels, in the category order of the PolyBench distribution.
    pub const ALL: [Kernel; 30] = [
        Kernel::Correlation,
        Kernel::Covariance,
        Kernel::Gemm,
        Kernel::Gemver,
        Kernel::Gesummv,
        Kernel::Symm,
        Kernel::Syr2k,
        Kernel::Syrk,
        Kernel::Trmm,
        Kernel::TwoMm,
        Kernel::ThreeMm,
        Kernel::Atax,
        Kernel::Bicg,
        Kernel::Doitgen,
        Kernel::Mvt,
        Kernel::Cholesky,
        Kernel::Durbin,
        Kernel::Gramschmidt,
        Kernel::Lu,
        Kernel::Ludcmp,
        Kernel::Trisolv,
        Kernel::Deriche,
        Kernel::FloydWarshall,
        Kernel::Nussinov,
        Kernel::Adi,
        Kernel::Fdtd2d,
        Kernel::Heat3d,
        Kernel::Jacobi1d,
        Kernel::Jacobi2d,
        Kernel::Seidel2d,
    ];

    /// The stencil kernels, which the paper highlights as the main
    /// beneficiaries of warping.
    pub const STENCILS: [Kernel; 6] = [
        Kernel::Adi,
        Kernel::Fdtd2d,
        Kernel::Heat3d,
        Kernel::Jacobi1d,
        Kernel::Jacobi2d,
        Kernel::Seidel2d,
    ];

    /// The PolyBench name of the kernel.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Correlation => "correlation",
            Kernel::Covariance => "covariance",
            Kernel::Gemm => "gemm",
            Kernel::Gemver => "gemver",
            Kernel::Gesummv => "gesummv",
            Kernel::Symm => "symm",
            Kernel::Syr2k => "syr2k",
            Kernel::Syrk => "syrk",
            Kernel::Trmm => "trmm",
            Kernel::TwoMm => "2mm",
            Kernel::ThreeMm => "3mm",
            Kernel::Atax => "atax",
            Kernel::Bicg => "bicg",
            Kernel::Doitgen => "doitgen",
            Kernel::Mvt => "mvt",
            Kernel::Cholesky => "cholesky",
            Kernel::Durbin => "durbin",
            Kernel::Gramschmidt => "gramschmidt",
            Kernel::Lu => "lu",
            Kernel::Ludcmp => "ludcmp",
            Kernel::Trisolv => "trisolv",
            Kernel::Deriche => "deriche",
            Kernel::FloydWarshall => "floyd-warshall",
            Kernel::Nussinov => "nussinov",
            Kernel::Adi => "adi",
            Kernel::Fdtd2d => "fdtd-2d",
            Kernel::Heat3d => "heat-3d",
            Kernel::Jacobi1d => "jacobi-1d",
            Kernel::Jacobi2d => "jacobi-2d",
            Kernel::Seidel2d => "seidel-2d",
        }
    }

    /// Looks a kernel up by its PolyBench name.
    pub fn by_name(name: &str) -> Option<Kernel> {
        Kernel::ALL.iter().copied().find(|k| k.name() == name)
    }

    /// True for the stencil kernels.
    pub fn is_stencil(self) -> bool {
        Kernel::STENCILS.contains(&self)
    }

    /// The kernel's loop nest in the mini-C dialect with the dataset sizes
    /// substituted.
    pub fn source(self, dataset: Dataset) -> String {
        use Dataset as D;
        use Kernel as K;
        // Size tables follow the PolyBench 4.2.1 headers (MINI, SMALL,
        // MEDIUM, LARGE, EXTRALARGE).
        let pick = |values: [u64; 5]| -> u64 {
            match dataset {
                D::Mini => values[0],
                D::Small => values[1],
                D::Medium => values[2],
                D::Large => values[3],
                D::ExtraLarge => values[4],
            }
        };
        match self {
            K::Correlation | K::Covariance => {
                let m = pick([28, 80, 240, 1200, 2600]);
                let n = pick([32, 100, 260, 1400, 3000]);
                if self == K::Correlation {
                    sources_other::correlation(m, n)
                } else {
                    sources_other::covariance(m, n)
                }
            }
            K::Gemm => sources_la::gemm(
                pick([20, 60, 200, 1000, 2000]),
                pick([25, 70, 220, 1100, 2300]),
                pick([30, 80, 240, 1200, 2600]),
            ),
            K::Gemver => sources_la::gemver(pick([40, 120, 400, 2000, 4000])),
            K::Gesummv => sources_la::gesummv(pick([30, 90, 250, 1300, 2800])),
            K::Symm => sources_la::symm(
                pick([20, 60, 200, 1000, 2000]),
                pick([30, 80, 240, 1200, 2600]),
            ),
            K::Syr2k => sources_la::syr2k(
                pick([20, 60, 200, 1000, 2000]),
                pick([30, 80, 240, 1200, 2600]),
            ),
            K::Syrk => sources_la::syrk(
                pick([20, 60, 200, 1000, 2000]),
                pick([30, 80, 240, 1200, 2600]),
            ),
            K::Trmm => sources_la::trmm(
                pick([20, 60, 200, 1000, 2000]),
                pick([30, 80, 240, 1200, 2600]),
            ),
            K::TwoMm => sources_la::two_mm(
                pick([16, 40, 180, 800, 1600]),
                pick([18, 50, 190, 900, 1800]),
                pick([22, 70, 210, 1100, 2200]),
                pick([24, 80, 220, 1200, 2400]),
            ),
            K::ThreeMm => sources_la::three_mm(
                pick([16, 40, 180, 800, 1600]),
                pick([18, 50, 190, 900, 1800]),
                pick([20, 60, 200, 1000, 2000]),
                pick([22, 70, 210, 1100, 2200]),
                pick([24, 80, 220, 1200, 2400]),
            ),
            K::Atax => sources_la::atax(
                pick([38, 116, 390, 1900, 3800]),
                pick([42, 124, 410, 2100, 4200]),
            ),
            K::Bicg => sources_la::bicg(
                pick([38, 116, 390, 1900, 3800]),
                pick([42, 124, 410, 2100, 4200]),
            ),
            K::Doitgen => sources_la::doitgen(
                pick([8, 20, 40, 140, 220]),
                pick([10, 25, 50, 150, 250]),
                pick([12, 30, 60, 160, 270]),
            ),
            K::Mvt => sources_la::mvt(pick([40, 120, 400, 2000, 4000])),
            K::Cholesky => sources_la::cholesky(pick([40, 120, 400, 2000, 4000])),
            K::Durbin => sources_la::durbin(pick([40, 120, 400, 2000, 4000])),
            K::Gramschmidt => sources_la::gramschmidt(
                pick([20, 60, 200, 1000, 2000]),
                pick([30, 80, 240, 1200, 2600]),
            ),
            K::Lu => sources_la::lu(pick([40, 120, 400, 2000, 4000])),
            K::Ludcmp => sources_la::ludcmp(pick([40, 120, 400, 2000, 4000])),
            K::Trisolv => sources_la::trisolv(pick([40, 120, 400, 2000, 4000])),
            K::Deriche => sources_other::deriche(
                pick([64, 192, 720, 4096, 7680]),
                pick([64, 128, 480, 2160, 4320]),
            ),
            K::FloydWarshall => sources_other::floyd_warshall(pick([60, 180, 500, 2800, 5600])),
            K::Nussinov => sources_other::nussinov(pick([60, 180, 500, 2500, 5500])),
            K::Adi => sources_stencil::adi(
                pick([20, 40, 100, 500, 1000]),
                pick([20, 60, 200, 1000, 2000]),
            ),
            K::Fdtd2d => sources_stencil::fdtd_2d(
                pick([20, 40, 100, 500, 1000]),
                pick([20, 60, 200, 1000, 2000]),
                pick([30, 80, 240, 1200, 2600]),
            ),
            K::Heat3d => sources_stencil::heat_3d(
                pick([20, 40, 100, 500, 1000]),
                pick([10, 20, 40, 120, 200]),
            ),
            K::Jacobi1d => sources_stencil::jacobi_1d(
                pick([20, 40, 100, 500, 1000]),
                pick([30, 120, 400, 2000, 4000]),
            ),
            K::Jacobi2d => sources_stencil::jacobi_2d(
                pick([20, 40, 100, 500, 1000]),
                pick([30, 90, 250, 1300, 2800]),
            ),
            K::Seidel2d => sources_stencil::seidel_2d(
                pick([20, 40, 100, 500, 1000]),
                pick([40, 120, 400, 2000, 4000]),
            ),
        }
    }

    /// Parses and elaborates the kernel into a SCoP (array accesses only).
    ///
    /// # Errors
    ///
    /// Returns an error string if the kernel source fails to parse or
    /// elaborate (which would indicate a bug in this crate).
    pub fn build(self, dataset: Dataset) -> Result<Scop, String> {
        self.build_with_options(dataset, &ElaborateOptions::default())
    }

    /// Parses and elaborates the kernel with explicit elaboration options
    /// (e.g. including scalar accesses for the hardware-reference model).
    ///
    /// # Errors
    ///
    /// Returns an error string if the kernel source fails to parse or
    /// elaborate.
    pub fn build_with_options(
        self,
        dataset: Dataset,
        options: &ElaborateOptions,
    ) -> Result<Scop, String> {
        let source = self.source(dataset);
        let program = parse_program(&source).map_err(|e| format!("{}: {e}", self.name()))?;
        elaborate(&program, options).map_err(|e| format!("{}: {e}", self.name()))
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_model::{CacheConfig, MemoryConfig, ReplacementPolicy};
    use simulate::simulate_memory;

    #[test]
    fn every_kernel_builds_at_every_dataset_size() {
        for kernel in Kernel::ALL {
            for dataset in [Dataset::Mini, Dataset::Small] {
                let scop = kernel.build(dataset).unwrap();
                assert!(
                    scop.access_nodes().count() > 0,
                    "{kernel} at {dataset} has access nodes"
                );
            }
            // Larger datasets must at least parse and elaborate.
            for dataset in [Dataset::Medium, Dataset::Large, Dataset::ExtraLarge] {
                kernel.build(dataset).unwrap();
            }
        }
    }

    #[test]
    fn kernel_names_round_trip() {
        for kernel in Kernel::ALL {
            assert_eq!(Kernel::by_name(kernel.name()), Some(kernel));
        }
        assert_eq!(Kernel::by_name("no-such-kernel"), None);
    }

    #[test]
    fn gemm_mini_access_count_matches_closed_form() {
        let scop = Kernel::Gemm.build(Dataset::Mini).unwrap();
        let (ni, nj, nk) = (20, 25, 30);
        // C[i][j] *= beta: 2 accesses; C += alpha*A*B: 4 accesses.
        let expected = ni * nj * 2 + ni * nk * nj * 4;
        assert_eq!(scop::count_accesses(&scop), expected);
    }

    #[test]
    fn jacobi_2d_mini_access_count_matches_closed_form() {
        let scop = Kernel::Jacobi2d.build(Dataset::Mini).unwrap();
        let (tsteps, n) = (20u64, 30u64);
        let expected = tsteps * 2 * (n - 2) * (n - 2) * 6;
        assert_eq!(scop::count_accesses(&scop), expected);
    }

    #[test]
    fn stencils_are_classified() {
        assert!(Kernel::Jacobi2d.is_stencil());
        assert!(!Kernel::Gemm.is_stencil());
        assert_eq!(Kernel::ALL.len(), 30);
    }

    #[test]
    fn mini_kernels_simulate_without_panicking() {
        let config = MemoryConfig::from(CacheConfig::new(1024, 4, 64, ReplacementPolicy::Lru));
        for kernel in Kernel::ALL {
            let scop = kernel.build(Dataset::Mini).unwrap();
            let result = simulate_memory(&scop, &config);
            assert!(result.accesses > 0, "{kernel}");
            assert!(result.levels[0].misses > 0, "{kernel}");
        }
    }

    #[test]
    fn scalar_elaboration_adds_accesses() {
        let without = Kernel::Gramschmidt.build(Dataset::Mini).unwrap();
        let with = Kernel::Gramschmidt
            .build_with_options(Dataset::Mini, &ElaborateOptions::with_scalars())
            .unwrap();
        assert!(scop::count_accesses(&with) > scop::count_accesses(&without));
    }
}
