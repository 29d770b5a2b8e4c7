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
