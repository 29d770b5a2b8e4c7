//! The content-addressed report cache.
//!
//! A sharded, LRU-bounded map from [`CanonicalHash`](engine::CanonicalHash)
//! to the [`SimReport`] that request produced.  Sharding keeps the hit path
//! concurrent: a lookup takes one shard-local read lock, so a storm of
//! cache hits on different keys (the steady state the ROADMAP's
//! millions-of-users story aims for) never serialises on a global lock.
//! Recency is tracked with a global atomic tick stamped into each entry on
//! access, so hits need no write lock either; eviction scans its shard for
//! the stalest entry, which is O(shard size) but only runs on insertions
//! into a full shard.
//!
//! Cached reports are returned exactly as stored — timing fields included —
//! so a warm response is byte-identical to the cold response that populated
//! it (CI asserts this over the wire protocol).

use engine::SimReport;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Counter snapshot of a [`ReportCache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found a stored report.
    pub hits: u64,
    /// Lookups that found nothing.  Only first probes count: a re-probe
    /// ([`ReportCache::reprobe`]) that finds the report turns its caller's
    /// miss into a hit, so `hits + misses` is the number of first probes.
    pub misses: u64,
    /// Entries displaced to keep a shard within its capacity share.
    pub evictions: u64,
    /// Stored entries right now.
    pub entries: u64,
    /// Total entry bound.
    pub capacity: u64,
}

struct Entry {
    report: SimReport,
    /// Global tick of the last access; ordered by `tick` only, so the
    /// relaxed stamp races at worst demote a just-used entry.
    last_used: AtomicU64,
}

struct Shard {
    map: HashMap<u128, Entry>,
    /// This shard's share of the total entry bound.
    capacity: usize,
}

/// The fewest entries a shard holds (unless the whole cache is smaller).
/// Each shard evicts on its own, so a small cache split 16 ways would
/// evict from one full shard while most of its bound sat unused in the
/// others.
const MIN_SHARD_ENTRIES: usize = 64;

/// A sharded content-addressed LRU cache of simulation reports.
pub struct ReportCache {
    shards: Vec<RwLock<Shard>>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    capacity: usize,
}

impl ReportCache {
    /// A cache bounded to `capacity` entries in total (0 disables caching:
    /// every lookup misses and insertions are dropped).
    pub fn new(capacity: usize) -> Self {
        let num_shards = (capacity / MIN_SHARD_ENTRIES).clamp(1, 16);
        let shards = (0..num_shards)
            .map(|i| {
                // Distribute the bound exactly: the first `capacity % n`
                // shards take one extra entry.
                let share = capacity / num_shards + usize::from(i < capacity % num_shards);
                RwLock::new(Shard {
                    map: HashMap::new(),
                    capacity: share,
                })
            })
            .collect();
        ReportCache {
            shards,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            capacity,
        }
    }

    fn shard(&self, key: u128) -> &RwLock<Shard> {
        // The key is already a uniform digest; fold the high half in so
        // shard choice and any HashMap bucketing stay decorrelated.
        let fold = (key >> 64) as u64 ^ key as u64;
        &self.shards[(fold % self.shards.len() as u64) as usize]
    }

    /// Looks `key` up, counting the outcome and refreshing recency.
    pub fn get(&self, key: u128) -> Option<SimReport> {
        match self.probe(key) {
            Some(report) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(report)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Looks `key` up again after this caller's [`ReportCache::get`]
    /// missed (the leader's re-probe under the dedup lock).  A report found
    /// now turns that miss into a hit; finding nothing counts nothing, so
    /// a simulated request stays one miss.  Refreshes recency like `get`.
    pub fn reprobe(&self, key: u128) -> Option<SimReport> {
        let report = self.probe(key)?;
        self.misses.fetch_sub(1, Ordering::Relaxed);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(report)
    }

    fn probe(&self, key: u128) -> Option<SimReport> {
        let shard = self.shard(key).read().expect("cache shard not poisoned");
        let entry = shard.map.get(&key)?;
        let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        entry.last_used.store(now, Ordering::Relaxed);
        Some(entry.report.clone())
    }

    /// Stores `report` under `key`, evicting the least-recently-used entry
    /// of the target shard if it is at capacity.
    pub fn insert(&self, key: u128, report: SimReport) {
        if self.capacity == 0 {
            return;
        }
        let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut shard = self.shard(key).write().expect("cache shard not poisoned");
        if let Some(existing) = shard.map.get_mut(&key) {
            existing.report = report;
            existing.last_used.store(now, Ordering::Relaxed);
            return;
        }
        if shard.map.len() >= shard.capacity {
            if shard.capacity == 0 {
                // A shard can end up with no share when the bound is below
                // the shard count; such shards simply never store.
                return;
            }
            let stalest = shard
                .map
                .iter()
                .min_by_key(|(_, entry)| entry.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| *k)
                .expect("full shard has entries");
            shard.map.remove(&stalest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        shard.map.insert(
            key,
            Entry {
                report,
                last_used: AtomicU64::new(now),
            },
        );
    }

    /// The number of stored entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("cache shard not poisoned").map.len())
            .sum()
    }

    /// Whether the cache currently stores nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the cache counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len() as u64,
            capacity: self.capacity as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::{Backend, Engine, KernelSpec, SimRequest};

    fn report(tag: u64) -> SimReport {
        let request = SimRequest::new(
            KernelSpec::source(
                format!("k{tag}"),
                "double A[8]; for (i = 0; i < 8; i++) A[i] = A[i];",
            ),
            cache_model::MemoryConfig::from(cache_model::CacheConfig::fully_associative(
                4,
                8,
                cache_model::ReplacementPolicy::Lru,
            )),
            Backend::Classic,
        );
        Engine::new().run(&request).expect("kernel builds")
    }

    #[test]
    fn hit_miss_and_identity() {
        let cache = ReportCache::new(8);
        assert!(cache.get(1).is_none());
        let stored = report(1);
        cache.insert(1, stored.clone());
        let got = cache.get(1).expect("hit");
        assert_eq!(got.to_json(), stored.to_json());
        let counters = cache.counters();
        assert_eq!((counters.hits, counters.misses), (1, 1));
    }

    #[test]
    fn lru_eviction_is_by_recency() {
        // Capacity 2 → one shard holding 2 entries, so the three
        // insertions below exercise a genuine recency choice: after
        // touching key 0, key 16 is the stalest and must be the victim.
        let cache = ReportCache::new(2);
        cache.insert(0, report(0));
        cache.insert(16, report(16));
        assert!(cache.get(0).is_some());
        cache.insert(32, report(32));
        assert_eq!(cache.counters().evictions, 1);
        assert!(cache.get(0).is_some(), "recently used entry survives");
        assert!(cache.get(32).is_some(), "new entry is stored");
        assert!(cache.get(16).is_none(), "stalest entry was evicted");
    }

    #[test]
    fn reprobe_turns_the_earlier_miss_into_a_hit() {
        let cache = ReportCache::new(8);
        let counts = |cache: &ReportCache| {
            let counters = cache.counters();
            (counters.hits, counters.misses)
        };
        assert!(cache.get(1).is_none());
        // Still absent: the first probe stays the one miss.
        assert!(cache.reprobe(1).is_none());
        assert_eq!(counts(&cache), (0, 1));
        // A racing leader cached the report between probe and re-probe.
        cache.insert(1, report(1));
        assert!(cache.reprobe(1).is_some());
        assert_eq!(counts(&cache), (1, 0), "hits + misses == first probes");
    }

    #[test]
    fn small_caches_fill_their_whole_bound() {
        // Keys 0, 16 and 32 fold onto one shard of a 16-shard layout; a
        // 32-entry cache must still hold all three.
        let cache = ReportCache::new(32);
        for key in [0, 16, 32] {
            cache.insert(key, report(key as u64));
        }
        assert_eq!(cache.counters().evictions, 0);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let cache = ReportCache::new(0);
        cache.insert(1, report(1));
        assert!(cache.get(1).is_none());
        assert!(cache.is_empty());
    }
}
