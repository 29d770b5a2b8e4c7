//! Simulation requests: what to simulate ([`KernelSpec`]), on which memory
//! system ([`MemoryConfig`]) and with which simulator ([`Backend`]).

use crate::sampling::SamplingOptions;
use cache_model::MemoryConfig;
use polybench::{Dataset, Kernel};
use scop::{parse_scop, ParamBindings, ParametricScop, Scop};
use serde::{Deserialize, Serialize, Value};

/// The kernel a request simulates.
#[derive(Clone, PartialEq, Debug)]
pub enum KernelSpec {
    /// A mini-C source text, elaborated with the default options (array
    /// accesses only).
    Source {
        /// Display name used in reports.
        name: String,
        /// The mini-C source.
        code: String,
    },
    /// A PolyBench kernel at a dataset size.
    PolyBench {
        /// The kernel.
        kernel: Kernel,
        /// The dataset size.
        dataset: Dataset,
    },
    /// An already-elaborated SCoP (skips parsing; useful when the same
    /// kernel is simulated under many configurations, and for callers that
    /// build SCoPs programmatically).  In-process only: serializing a
    /// prebuilt spec records just its name, and such JSON is rejected on
    /// deserialization — use [`KernelSpec::Source`] or
    /// [`KernelSpec::PolyBench`] for requests that travel over the wire.
    Prebuilt {
        /// Display name used in reports.
        name: String,
        /// The SCoP.
        scop: Scop,
    },
    /// A parametric kernel family (mini-C source with `param` declarations)
    /// plus the bindings that select one concrete instance.  The template
    /// is parsed once per process ([`ParametricScop::cached`]); building an
    /// instance is substitution + elaboration only.
    Parametric {
        /// Display name used in reports.
        name: String,
        /// The parametric mini-C source.
        code: String,
        /// Parameter bindings, sorted by name (deduplicated; the
        /// constructor normalises).
        bindings: Vec<(String, i64)>,
    },
}

impl KernelSpec {
    /// A request kernel from mini-C source.
    pub fn source(name: impl Into<String>, code: impl Into<String>) -> Self {
        KernelSpec::Source {
            name: name.into(),
            code: code.into(),
        }
    }

    /// A request kernel naming a PolyBench benchmark.
    pub fn polybench(kernel: Kernel, dataset: Dataset) -> Self {
        KernelSpec::PolyBench { kernel, dataset }
    }

    /// A request kernel wrapping an elaborated SCoP.
    pub fn prebuilt(name: impl Into<String>, scop: Scop) -> Self {
        KernelSpec::Prebuilt {
            name: name.into(),
            scop,
        }
    }

    /// A request kernel selecting one instance of a parametric family.
    /// Bindings are normalised (sorted by name, later duplicates win) so
    /// equal binding sets compare and hash equal regardless of input order.
    pub fn parametric<I, S>(name: impl Into<String>, code: impl Into<String>, bindings: I) -> Self
    where
        I: IntoIterator<Item = (S, i64)>,
        S: Into<String>,
    {
        let normalised: std::collections::BTreeMap<String, i64> = bindings
            .into_iter()
            .map(|(name, value)| (name.into(), value))
            .collect();
        KernelSpec::Parametric {
            name: name.into(),
            code: code.into(),
            bindings: normalised.into_iter().collect(),
        }
    }

    /// The display name used in reports.
    pub fn name(&self) -> String {
        match self {
            KernelSpec::Source { name, .. }
            | KernelSpec::Prebuilt { name, .. }
            | KernelSpec::Parametric { name, .. } => name.clone(),
            KernelSpec::PolyBench { kernel, dataset } => {
                format!("{}@{}", kernel.name(), dataset.name())
            }
        }
    }

    /// The bindings of a parametric spec as [`ParamBindings`] (empty for
    /// other variants).
    pub fn param_bindings(&self) -> ParamBindings {
        match self {
            KernelSpec::Parametric { bindings, .. } => {
                ParamBindings::from_pairs(bindings.iter().cloned())
            }
            _ => ParamBindings::new(),
        }
    }

    /// Elaborates the kernel into a SCoP.
    ///
    /// # Errors
    ///
    /// Returns the parse/elaboration error message for invalid sources.
    pub fn build(&self) -> Result<Scop, String> {
        match self {
            KernelSpec::Source { code, .. } => parse_scop(code),
            KernelSpec::PolyBench { kernel, dataset } => kernel.build(*dataset),
            KernelSpec::Prebuilt { scop, .. } => Ok(scop.clone()),
            KernelSpec::Parametric { code, .. } => {
                let template = ParametricScop::cached(code).map_err(|e| e.to_string())?;
                template
                    .instantiate(&self.param_bindings())
                    .map_err(|e| e.to_string())
            }
        }
    }
}

/// The simulator or model answering a request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    /// Per-access simulation (Algorithm 1 of the paper); exact for any
    /// memory depth.
    Classic,
    /// Warping symbolic simulation (Algorithm 2); exact for any memory
    /// depth.
    Warping,
    /// HayStack-style stack-distance model of a fully-associative LRU
    /// cache; single-level memory systems.
    Haystack,
    /// PolyCache-style per-set model of a two-level set-associative LRU
    /// hierarchy.
    PolyCache,
    /// Dinero-IV-style trace simulation: materialise the full access trace,
    /// then replay it; exact for any memory depth.
    Trace,
    /// Interval sampling: simulates only representative intervals of the
    /// outer iteration space and extrapolates per-level counts, reporting
    /// a per-level error bound in
    /// [`SimReport::approx`](crate::SimReport::approx).  Approximate (fast
    /// path for kernels warping cannot accelerate); exact at a sampling
    /// rate of 1.0.
    Sampled(SamplingOptions),
}

impl Backend {
    /// The paper's five evaluated backends (in the order of the paper's
    /// evaluation).  The approximate [`Backend::Sampled`] is deliberately
    /// not part of this list.
    pub const ALL: [Backend; 5] = [
        Backend::Classic,
        Backend::Warping,
        Backend::Haystack,
        Backend::PolyCache,
        Backend::Trace,
    ];

    /// The warping backend.
    pub fn warping() -> Self {
        Backend::Warping
    }

    /// The sampling backend with default tuning options (~10% rate, one
    /// warm-up interval per live level).
    pub fn sampled() -> Self {
        Backend::Sampled(SamplingOptions::default())
    }

    /// A short stable identifier, usable in JSON and on the command line.
    pub fn label(&self) -> &'static str {
        match self {
            Backend::Classic => "classic",
            Backend::Warping => "warping",
            Backend::Haystack => "haystack",
            Backend::PolyCache => "polycache",
            Backend::Trace => "trace",
            Backend::Sampled(_) => "sampled",
        }
    }

    /// Parses a backend from its [`label`](Backend::label) (sampled gets
    /// its default options).
    pub fn by_name(name: &str) -> Option<Backend> {
        match name {
            "classic" => Some(Backend::Classic),
            "warping" => Some(Backend::warping()),
            "haystack" => Some(Backend::Haystack),
            "polycache" => Some(Backend::PolyCache),
            "trace" => Some(Backend::Trace),
            "sampled" => Some(Backend::sampled()),
            _ => None,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One unit of work for the [`Engine`](crate::Engine): a kernel × memory
/// configuration × backend triple.
#[derive(Clone, PartialEq, Debug)]
pub struct SimRequest {
    /// What to simulate.
    pub kernel: KernelSpec,
    /// The memory system to simulate it on.
    pub memory: MemoryConfig,
    /// The simulator to use.
    pub backend: Backend,
}

impl SimRequest {
    /// A request from any memory description convertible to
    /// [`MemoryConfig`] (e.g. a `CacheConfig`).
    pub fn new(kernel: KernelSpec, memory: impl Into<MemoryConfig>, backend: Backend) -> Self {
        SimRequest {
            kernel,
            memory: memory.into(),
            backend,
        }
    }

    /// The full kernel × memory × backend grid, in row-major order
    /// (kernels outermost) — the shape
    /// [`Engine::run_batch`](crate::Engine::run_batch) fans out across
    /// threads.
    pub fn grid(
        kernels: &[KernelSpec],
        memories: &[MemoryConfig],
        backends: &[Backend],
    ) -> Vec<SimRequest> {
        let mut requests = Vec::with_capacity(kernels.len() * memories.len() * backends.len());
        for kernel in kernels {
            for memory in memories {
                for backend in backends {
                    requests.push(SimRequest {
                        kernel: kernel.clone(),
                        memory: memory.clone(),
                        backend: *backend,
                    });
                }
            }
        }
        requests
    }
}

// ---------------------------------------------------------------------------
// JSON (de)serialization, so request grids can be served over the wire.

impl Serialize for KernelSpec {
    fn serialize_value(&self) -> Value {
        match self {
            KernelSpec::Source { name, code } => Value::Object(vec![
                ("type".to_string(), Value::Str("source".to_string())),
                ("name".to_string(), Value::Str(name.clone())),
                ("code".to_string(), Value::Str(code.clone())),
            ]),
            KernelSpec::PolyBench { kernel, dataset } => Value::Object(vec![
                ("type".to_string(), Value::Str("polybench".to_string())),
                ("kernel".to_string(), Value::Str(kernel.name().to_string())),
                (
                    "dataset".to_string(),
                    Value::Str(dataset.name().to_string()),
                ),
            ]),
            // A prebuilt SCoP is an in-process optimisation; over the wire
            // only its name travels.
            KernelSpec::Prebuilt { name, .. } => Value::Object(vec![
                ("type".to_string(), Value::Str("prebuilt".to_string())),
                ("name".to_string(), Value::Str(name.clone())),
            ]),
            KernelSpec::Parametric {
                name,
                code,
                bindings,
            } => Value::Object(vec![
                ("type".to_string(), Value::Str("parametric".to_string())),
                ("name".to_string(), Value::Str(name.clone())),
                ("code".to_string(), Value::Str(code.clone())),
                (
                    "bindings".to_string(),
                    Value::Object(
                        bindings
                            .iter()
                            .map(|(param, value)| (param.clone(), Value::Int(*value)))
                            .collect(),
                    ),
                ),
            ]),
        }
    }
}

impl Deserialize for KernelSpec {
    fn deserialize_value(value: &Value) -> Result<Self, String> {
        let kind = value
            .get("type")
            .and_then(Value::as_str)
            .ok_or("kernel spec is missing `type`")?;
        match kind {
            "source" => {
                let name = value
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("source kernel spec is missing `name`")?;
                let code = value
                    .get("code")
                    .and_then(Value::as_str)
                    .ok_or("source kernel spec is missing `code`")?;
                Ok(KernelSpec::source(name, code))
            }
            "polybench" => {
                let kernel = value
                    .get("kernel")
                    .and_then(Value::as_str)
                    .ok_or("polybench kernel spec is missing `kernel`")?;
                let kernel = Kernel::by_name(kernel)
                    .ok_or_else(|| format!("unknown PolyBench kernel `{kernel}`"))?;
                let dataset = value
                    .get("dataset")
                    .and_then(Value::as_str)
                    .ok_or("polybench kernel spec is missing `dataset`")?;
                let dataset = dataset_by_name(dataset)
                    .ok_or_else(|| format!("unknown dataset `{dataset}`"))?;
                Ok(KernelSpec::polybench(kernel, dataset))
            }
            "parametric" => {
                let name = value
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("parametric kernel spec is missing `name`")?;
                let code = value
                    .get("code")
                    .and_then(Value::as_str)
                    .ok_or("parametric kernel spec is missing `code`")?;
                let bindings = match value.get("bindings") {
                    Some(Value::Object(entries)) => entries
                        .iter()
                        .map(|(param, v)| {
                            let bound = v.as_i64().ok_or_else(|| {
                                format!("binding for parameter `{param}` must be an integer")
                            })?;
                            Ok((param.clone(), bound))
                        })
                        .collect::<Result<Vec<_>, String>>()?,
                    Some(other) => {
                        return Err(format!(
                            "parametric kernel spec `bindings` must be an object, got {other:?}"
                        ))
                    }
                    None => Vec::new(),
                };
                Ok(KernelSpec::parametric(name, code, bindings))
            }
            "prebuilt" => Err(
                "prebuilt kernel specs are an in-process optimisation and cannot travel over \
                 the wire (only their name is serialized); send a `source` or `polybench` spec \
                 instead"
                    .to_string(),
            ),
            other => Err(format!("cannot deserialize kernel spec of type `{other}`")),
        }
    }
}

/// Parses a dataset name (case-insensitive, PolyBench spelling).
pub fn dataset_by_name(name: &str) -> Option<Dataset> {
    match name.to_ascii_lowercase().as_str() {
        "mini" => Some(Dataset::Mini),
        "small" => Some(Dataset::Small),
        "medium" => Some(Dataset::Medium),
        "large" => Some(Dataset::Large),
        "extralarge" | "xl" => Some(Dataset::ExtraLarge),
        _ => None,
    }
}

impl Serialize for Backend {
    fn serialize_value(&self) -> Value {
        // Backends stay bare name strings (the historical wire form); only
        // non-default sampling options need the object form.
        if let Backend::Sampled(options) = self {
            if *options != SamplingOptions::DEFAULT {
                return Value::Object(vec![
                    ("name".to_string(), Value::Str(self.label().to_string())),
                    (
                        "rate_ppm".to_string(),
                        Value::Int(i64::from(options.rate_ppm)),
                    ),
                    ("warmup".to_string(), Value::Int(i64::from(options.warmup))),
                    (
                        "max_error".to_string(),
                        Value::Int(options.max_error.min(i64::MAX as u64) as i64),
                    ),
                ]);
            }
        }
        Value::Str(self.label().to_string())
    }
}

impl Deserialize for Backend {
    fn deserialize_value(value: &Value) -> Result<Self, String> {
        if let Some(name) = value.as_str() {
            return Backend::by_name(name).ok_or_else(|| format!("unknown backend `{name}`"));
        }
        // Object form: `{"name":"sampled","rate_ppm":…,"warmup":…,
        // "max_error":…}` — every field beyond `name` optional, defaulted,
        // and any other key refused rather than silently ignored.
        let name = value
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("expected a backend name or object, got {value:?}"))?;
        let backend = Backend::by_name(name).ok_or_else(|| format!("unknown backend `{name}`"))?;
        let keys: &[&str] = match backend {
            Backend::Sampled(_) => &["name", "rate_ppm", "warmup", "max_error"],
            _ => &["name"],
        };
        if let Value::Object(fields) = value {
            if let Some((key, _)) = fields.iter().find(|(key, _)| !keys.contains(&key.as_str())) {
                return Err(format!("backend `{name}` has no option `{key}`"));
            }
        }
        let Backend::Sampled(mut options) = backend else {
            return Ok(backend);
        };
        if let Some(rate) = value.get("rate_ppm") {
            let rate = rate
                .as_i64()
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| "backend `rate_ppm` must be a non-negative integer".to_string())?;
            options.rate_ppm = rate;
        }
        if let Some(warmup) = value.get("warmup") {
            let warmup = warmup
                .as_i64()
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| "backend `warmup` must be a non-negative integer".to_string())?;
            options.warmup = warmup;
        }
        if let Some(max_error) = value.get("max_error") {
            let max_error = max_error
                .as_i64()
                .and_then(|v| u64::try_from(v).ok())
                .ok_or_else(|| "backend `max_error` must be a non-negative integer".to_string())?;
            options.max_error = max_error;
        }
        options.validate()?;
        Ok(Backend::Sampled(options))
    }
}

impl Serialize for SimRequest {
    fn serialize_value(&self) -> Value {
        Value::Object(vec![
            ("kernel".to_string(), self.kernel.serialize_value()),
            ("memory".to_string(), self.memory.serialize_value()),
            ("backend".to_string(), self.backend.serialize_value()),
        ])
    }
}

impl Deserialize for SimRequest {
    fn deserialize_value(value: &Value) -> Result<Self, String> {
        let kernel = KernelSpec::deserialize_value(
            value.get("kernel").ok_or("request is missing `kernel`")?,
        )?;
        let memory = MemoryConfig::deserialize_value(
            value.get("memory").ok_or("request is missing `memory`")?,
        )?;
        let backend = Backend::deserialize_value(
            value.get("backend").ok_or("request is missing `backend`")?,
        )?;
        Ok(SimRequest {
            kernel,
            memory,
            backend,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_model::{CacheConfig, MemoryConfig, ReplacementPolicy};

    #[test]
    fn parametric_specs_roundtrip_over_the_wire() {
        let request = SimRequest::new(
            KernelSpec::parametric(
                "tiled",
                "param N, T;\ndouble A[N];\nfor (i = 0; i < N; i += T) A[i] = A[i];",
                [("T", 8), ("N", 64)],
            ),
            MemoryConfig::from(CacheConfig::new(1024, 4, 64, ReplacementPolicy::Lru)),
            Backend::warping(),
        );
        let text = serde_json::to_string(&request).expect("requests serialize");
        assert!(text.contains("\"parametric\""), "wire form: {text}");
        let back: SimRequest = serde_json::from_str(&text).expect("requests deserialize");
        assert_eq!(back.kernel.name(), "tiled");
        match &back.kernel {
            KernelSpec::Parametric { bindings, .. } => {
                // Bindings are normalised to name order regardless of the
                // order they were supplied in.
                assert_eq!(bindings, &vec![("N".to_string(), 64), ("T".to_string(), 8)]);
            }
            other => panic!("roundtripped into {other:?}"),
        }
        assert_eq!(request.canonical_hash(), back.canonical_hash());
    }

    #[test]
    fn backends_with_default_options_stay_bare_strings() {
        for backend in Backend::ALL.iter().chain([Backend::sampled()].iter()) {
            let value = backend.serialize_value();
            assert_eq!(value.as_str(), Some(backend.label()), "{backend:?}");
            let back = Backend::deserialize_value(&value).expect("bare names deserialize");
            assert_eq!(&back, backend);
        }
    }

    #[test]
    fn sampled_backend_roundtrips_max_error_in_object_form() {
        let backend = Backend::Sampled(
            SamplingOptions::from_rate(0.05)
                .expect("0.05 is a valid rate")
                .with_max_error(1_000),
        );
        let value = backend.serialize_value();
        assert!(
            value.as_str().is_none(),
            "non-default options need the object form"
        );
        let back = Backend::deserialize_value(&value).expect("object form deserializes");
        assert_eq!(back, backend);
        // Partial objects default the missing fields.
        let text = r#"{"name":"sampled","max_error":42}"#;
        let partial = Backend::deserialize_value(
            &serde_json::from_str::<serde::Value>(text).expect("valid JSON"),
        )
        .expect("partial object deserializes");
        assert_eq!(
            partial,
            Backend::Sampled(SamplingOptions::DEFAULT.with_max_error(42))
        );
        // Invalid rates are rejected at the wire boundary.
        let text = r#"{"name":"sampled","rate_ppm":0}"#;
        Backend::deserialize_value(
            &serde_json::from_str::<serde::Value>(text).expect("valid JSON"),
        )
        .expect_err("zero rate must be rejected");
    }

    #[test]
    fn backend_objects_refuse_unknown_keys() {
        for (text, key) in [
            (r#"{"name":"sampled","rate":0.01}"#, "rate"),
            (r#"{"name":"warping","eager_attempts":1}"#, "eager_attempts"),
            (r#"{"name":"classic","rate_ppm":1000}"#, "rate_ppm"),
        ] {
            let err = Backend::deserialize_value(
                &serde_json::from_str::<serde::Value>(text).expect("valid JSON"),
            )
            .expect_err("unknown keys must be rejected");
            assert!(err.contains(&format!("`{key}`")), "{text}: {err}");
        }
        let text = r#"{"name":"warping"}"#;
        let bare = Backend::deserialize_value(
            &serde_json::from_str::<serde::Value>(text).expect("valid JSON"),
        )
        .expect("a name-only object deserializes");
        assert_eq!(bare, Backend::Warping);
    }

    #[test]
    fn parametric_bindings_must_be_integers() {
        let text = r#"{"type":"parametric","name":"k","code":"param N; double A[N]; for (i = 0; i < N; i++) A[i] = A[i];","bindings":{"N":"big"}}"#;
        let err = KernelSpec::deserialize_value(
            &serde_json::from_str::<serde::Value>(text).expect("valid JSON"),
        )
        .expect_err("string bindings must be rejected");
        assert!(err.contains("must be an integer"), "got: {err}");
    }

    #[test]
    fn parametric_build_surfaces_binding_errors() {
        let spec = KernelSpec::parametric(
            "k",
            "param N;\ndouble A[N];\nfor (i = 0; i < N; i++) A[i] = A[i];",
            [] as [(&str, i64); 0],
        );
        let err = spec.build().expect_err("unbound parameter must fail");
        assert!(err.contains("never bound"), "got: {err}");
    }
}
