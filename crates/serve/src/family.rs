//! The family tier of the serving layer.
//!
//! A parametric kernel names a *family* of simulations: one template,
//! many `(bindings, memory, backend)` instances.  Exploration traffic
//! (tile-size sweeps, hierarchy grids) hammers one family with hundreds of
//! instances, so the service fronts the report cache with a family
//! registry:
//!
//! * **registration** — a client sends the template once
//!   (`{"cmd": "register_family"}`); later request lines reference it by
//!   its 128-bit family address plus a bindings object, never re-sending
//!   (or re-parsing) the source;
//! * **instance memo** — within a family, the canonical instance address
//!   of every `(config, bindings)` pair already seen is memoised, so
//!   repeat submissions skip substitution and canonicalisation entirely
//!   and go straight to the report cache (the two-tier lookup:
//!   family → bindings → report);
//! * **per-family counters** — how many submissions each family received
//!   and how many were answered from the report cache, exported via
//!   [`SimService::family_stats`](crate::SimService::family_stats) and the
//!   wire protocol's `{"cmd": "families"}` line.
//!
//! Families are auto-registered on first parametric submission, so the
//! counters also cover clients that ship full parametric specs instead of
//! registering first.

use engine::{Calibration, WarmOutcome};
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// One registered kernel family: identity, template and counters.
pub(crate) struct FamilyEntry {
    /// Display name from registration (or the first submission's kernel).
    name: String,
    /// The parametric template source.
    code: String,
    /// Declared parameter names, in declaration order.
    params: Vec<String>,
    /// Submissions routed to this family.
    requests: AtomicU64,
    /// Submissions answered from the report cache.
    hits: AtomicU64,
    /// `config_text|bindings` → canonical instance address.
    instances: Mutex<HashMap<String, u128>>,
}

impl FamilyEntry {
    pub(crate) fn count_request(&self) {
        self.requests.fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn count_hit(&self) {
        self.hits.fetch_add(1, Ordering::SeqCst);
    }

    /// The memoised canonical instance address for `instance_key`, if this
    /// `(config, bindings)` pair has been seen before.
    pub(crate) fn instance(&self, instance_key: &str) -> Option<u128> {
        self.instances
            .lock()
            .expect("family memo not poisoned")
            .get(instance_key)
            .copied()
    }

    pub(crate) fn record_instance(&self, instance_key: String, hash: u128) {
        self.instances
            .lock()
            .expect("family memo not poisoned")
            .insert(instance_key, hash);
    }

    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    pub(crate) fn code(&self) -> &str {
        &self.code
    }
}

/// A JSON-serializable snapshot of one family's counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FamilyStats {
    /// The 128-bit family address, hex-encoded.
    pub family: String,
    /// Display name.
    pub name: String,
    /// Declared parameter names.
    pub params: Vec<String>,
    /// Submissions routed to this family.
    pub requests: u64,
    /// Submissions answered from the report cache.
    pub hits: u64,
    /// Distinct `(config, bindings)` instances seen.
    pub instances: u64,
}

impl Serialize for FamilyStats {
    fn serialize_value(&self) -> Value {
        Value::Object(vec![
            ("family".to_string(), Value::Str(self.family.clone())),
            ("name".to_string(), Value::Str(self.name.clone())),
            (
                "params".to_string(),
                Value::Array(self.params.iter().map(|p| Value::Str(p.clone())).collect()),
            ),
            ("requests".to_string(), Value::UInt(self.requests)),
            ("hits".to_string(), Value::UInt(self.hits)),
            ("instances".to_string(), Value::UInt(self.instances)),
        ])
    }
}

/// One calibration slot: the calibration the last sampled simulation under
/// a given `(family, config)` coordinate measured, plus per-slot counters.
#[derive(Default)]
struct CalibrationSlot {
    calibration: Option<Calibration>,
    hits: u64,
    fallbacks: u64,
}

/// A JSON-serializable snapshot of one calibration slot's counters,
/// exported so sweep drivers can assert reuse per (hierarchy, policy)
/// coordinate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CalibrationStats {
    /// The 128-bit family address, hex-encoded.
    pub family: String,
    /// The memory × backend coordinate (the request's canonical config
    /// text) this slot is keyed by.
    pub config: String,
    /// Submissions that consulted this slot's stored state.
    pub hits: u64,
    /// Seeded submissions whose validation failed and re-calibrated cold.
    pub fallbacks: u64,
    /// Whether the slot currently holds a sampling calibration.
    pub has_calibration: bool,
}

impl Serialize for CalibrationStats {
    fn serialize_value(&self) -> Value {
        Value::Object(vec![
            ("family".to_string(), Value::Str(self.family.clone())),
            ("config".to_string(), Value::Str(self.config.clone())),
            ("hits".to_string(), Value::UInt(self.hits)),
            ("fallbacks".to_string(), Value::UInt(self.fallbacks)),
            (
                "has_calibration".to_string(),
                Value::Bool(self.has_calibration),
            ),
        ])
    }
}

/// The cross-instance calibration store of the family tier: per
/// `(family, hierarchy × policy × backend)` coordinate, the sampling
/// calibration ([`engine::Calibration`]) the previous instance measured,
/// ready to donate to the next binding.
///
/// The key includes the request's canonical config text, so a calibration
/// measured under one hierarchy or replacement policy is *never* offered
/// to a request under another — changing either simply addresses a fresh
/// slot (and the seeded engine re-validates every donated quantity anyway,
/// so even a stale same-key donation costs time, never soundness).
#[derive(Default)]
pub struct CalibrationCache {
    slots: Mutex<HashMap<(u128, String), CalibrationSlot>>,
    hits: AtomicU64,
    misses: AtomicU64,
    fallbacks: AtomicU64,
}

impl CalibrationCache {
    /// An empty cache.
    pub fn new() -> Self {
        CalibrationCache::default()
    }

    /// The stored calibration for a `(family, config)` coordinate (`None`
    /// when nothing has been donated yet), counting a hit or a miss.
    pub fn lookup(&self, family: u128, config: &str) -> Option<Calibration> {
        let mut slots = self.slots.lock().expect("calibration cache not poisoned");
        let slot = slots.entry((family, config.to_string())).or_default();
        if slot.calibration.is_some() {
            slot.hits += 1;
            self.hits.fetch_add(1, Ordering::SeqCst);
        } else {
            self.misses.fetch_add(1, Ordering::SeqCst);
        }
        slot.calibration.clone()
    }

    /// Records what a sampled simulation left behind for the next instance
    /// under the same coordinate: a measured calibration replaces the
    /// stored one (the newest instance is the nearest donor in a sweep),
    /// and a seeded run that fell back to cold calibration bumps the
    /// fallback counters.
    pub fn store(&self, family: u128, config: &str, outcome: &WarmOutcome) {
        let mut slots = self.slots.lock().expect("calibration cache not poisoned");
        let slot = slots.entry((family, config.to_string())).or_default();
        if let Some(calibration) = &outcome.calibration {
            slot.calibration = Some(calibration.clone());
        }
        if outcome.calibration_fallback {
            slot.fallbacks += 1;
            self.fallbacks.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Aggregate (hits, misses, fallbacks).
    pub fn totals(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::SeqCst),
            self.misses.load(Ordering::SeqCst),
            self.fallbacks.load(Ordering::SeqCst),
        )
    }

    /// Per-slot snapshots, sorted by (family, config) for deterministic
    /// output.
    pub fn snapshot(&self) -> Vec<CalibrationStats> {
        let slots = self.slots.lock().expect("calibration cache not poisoned");
        let mut stats: Vec<CalibrationStats> = slots
            .iter()
            .map(|((family, config), slot)| CalibrationStats {
                family: format!("{family:032x}"),
                config: config.clone(),
                hits: slot.hits,
                fallbacks: slot.fallbacks,
                has_calibration: slot.calibration.is_some(),
            })
            .collect();
        stats.sort_by(|a, b| (&a.family, &a.config).cmp(&(&b.family, &b.config)));
        stats
    }
}

/// The process-wide registry of kernel families, keyed by family address.
#[derive(Default)]
pub(crate) struct FamilyRegistry {
    families: RwLock<HashMap<u128, Arc<FamilyEntry>>>,
}

impl FamilyRegistry {
    pub(crate) fn new() -> Self {
        FamilyRegistry::default()
    }

    /// The entry for `family`, creating it (with the given identity) on
    /// first sight.  Returns the entry and whether it was freshly created.
    pub(crate) fn ensure(
        &self,
        family: u128,
        name: &str,
        code: &str,
        params: &[String],
    ) -> (Arc<FamilyEntry>, bool) {
        if let Some(entry) = self
            .families
            .read()
            .expect("family registry not poisoned")
            .get(&family)
        {
            return (entry.clone(), false);
        }
        let mut families = self.families.write().expect("family registry not poisoned");
        // A racing writer may have inserted between our read and write
        // locks; keep theirs so counters never reset.
        if let Some(entry) = families.get(&family) {
            return (entry.clone(), false);
        }
        let entry = Arc::new(FamilyEntry {
            name: name.to_string(),
            code: code.to_string(),
            params: params.to_vec(),
            requests: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            instances: Mutex::new(HashMap::new()),
        });
        families.insert(family, entry.clone());
        (entry, true)
    }

    /// The entry for `family`, if registered.
    pub(crate) fn get(&self, family: u128) -> Option<Arc<FamilyEntry>> {
        self.families
            .read()
            .expect("family registry not poisoned")
            .get(&family)
            .cloned()
    }

    /// The number of registered families.
    pub(crate) fn len(&self) -> u64 {
        self.families
            .read()
            .expect("family registry not poisoned")
            .len() as u64
    }

    /// Aggregate (requests, hits) across every family.
    pub(crate) fn totals(&self) -> (u64, u64) {
        let families = self.families.read().expect("family registry not poisoned");
        families.values().fold((0, 0), |(requests, hits), entry| {
            (
                requests + entry.requests.load(Ordering::SeqCst),
                hits + entry.hits.load(Ordering::SeqCst),
            )
        })
    }

    /// Per-family snapshots, sorted by family address for deterministic
    /// output.
    pub(crate) fn snapshot(&self) -> Vec<FamilyStats> {
        let families = self.families.read().expect("family registry not poisoned");
        let mut stats: Vec<FamilyStats> = families
            .iter()
            .map(|(family, entry)| FamilyStats {
                family: format!("{family:032x}"),
                name: entry.name.clone(),
                params: entry.params.clone(),
                requests: entry.requests.load(Ordering::SeqCst),
                hits: entry.hits.load(Ordering::SeqCst),
                instances: entry
                    .instances
                    .lock()
                    .expect("family memo not poisoned")
                    .len() as u64,
            })
            .collect();
        stats.sort_by(|a, b| a.family.cmp(&b.family));
        stats
    }
}
