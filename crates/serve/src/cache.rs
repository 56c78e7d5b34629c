//! The content-addressed verdict cache.
//!
//! Every completed verification is stored under its
//! [`CacheKey`] — the stable hash of the *normalised*
//! request computed by `effpi::fingerprint` — so semantically identical
//! specs (alias renaming, re-ordered unions, whitespace changes) hit one
//! entry, and a hit replays the stored wire report **byte-identically** to
//! the cold run that populated it (the [`wire::Json`] rendering is
//! deterministic, and the stored value is returned as-is, cold-run timings
//! included).
//!
//! The cache is bounded twice over, in the two ways a verification cache can
//! actually hurt a long-running daemon:
//!
//! * **by entries** — a hard cap on the number of cached verdicts;
//! * **by estimated state count** — the sum of each entry's explored LTS
//!   states, a proxy for how much memory the *reports* and their provenance
//!   are worth keeping. One giant scenario should not be able to pin
//!   thousands of small ones out, nor vice versa.
//!
//! Either bound evicts **least-recently-used first** (a `BTreeMap` recency
//! index keyed by a monotonic tick: O(log n) per touch/evict, no unsafe, no
//! hand-rolled linked list). A report whose state count alone exceeds the
//! state budget is served but never admitted.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use effpi::CacheKey;

/// Bounds for a [`VerdictCache`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// Maximum number of cached verdicts.
    pub max_entries: usize,
    /// Maximum *summed* explored-state count across all cached verdicts.
    pub max_states: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            max_entries: 1024,
            max_states: 1_000_000,
        }
    }
}

/// A point-in-time snapshot of the cache counters (the `stats` request).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries admitted.
    pub insertions: u64,
    /// Entries evicted to satisfy a bound.
    pub evictions: u64,
    /// Reports served but never admitted (alone over the state budget).
    pub uncacheable: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Summed explored-state count currently resident.
    pub states: usize,
}

struct Entry {
    tick: u64,
    states: usize,
    /// The report **pre-rendered** to its wire text and shared by refcount:
    /// a hit is a clone of the `Arc`, not a deep copy of a JSON tree, so the
    /// global cache lock is held for nanoseconds — and splicing the stored
    /// text into a response replays the cold run's bytes trivially.
    report: Arc<str>,
}

/// A bounded, LRU, content-addressed verdict cache (see the module docs).
///
/// Not internally synchronised: the server wraps it in one
/// `obs::sync::Mutex`, which is also what makes the hit/miss counters
/// coherent with the entries they describe.
pub struct VerdictCache {
    config: CacheConfig,
    map: HashMap<u128, Entry>,
    /// Recency index: tick → key. Ticks are unique (monotonic counter), so
    /// the first entry is always the least recently used.
    recency: BTreeMap<u64, u128>,
    tick: u64,
    stats: CacheStats,
}

impl VerdictCache {
    /// Creates an empty cache with the given bounds.
    pub fn new(config: CacheConfig) -> Self {
        VerdictCache {
            config,
            map: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configured bounds.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Looks up a verdict, counting a hit or miss and refreshing recency on
    /// a hit. The returned text is the stored rendering — byte-identical to
    /// the response body that populated the entry.
    pub fn get(&mut self, key: CacheKey) -> Option<Arc<str>> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(&key.0) {
            Some(entry) => {
                self.stats.hits += 1;
                self.recency.remove(&entry.tick);
                entry.tick = tick;
                self.recency.insert(tick, key.0);
                Some(Arc::clone(&entry.report))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Admits a verdict under `key`, charging it `states` against the state
    /// budget, then evicts LRU entries until both bounds hold. A report that
    /// alone exceeds the state budget is not admitted (counted as
    /// `uncacheable`); re-inserting an existing key refreshes it in place.
    pub fn insert(&mut self, key: CacheKey, states: usize, report: Arc<str>) {
        if states > self.config.max_states || self.config.max_entries == 0 {
            self.stats.uncacheable += 1;
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        if let Some(old) = self.map.remove(&key.0) {
            // A racing worker verified the same key twice (the cache does not
            // hold its lock across a verification); keep the newer entry.
            self.recency.remove(&old.tick);
            self.stats.states -= old.states;
            self.stats.entries -= 1;
        }
        self.map.insert(
            key.0,
            Entry {
                tick,
                states,
                report,
            },
        );
        self.recency.insert(tick, key.0);
        self.stats.entries += 1;
        self.stats.states += states;
        self.stats.insertions += 1;
        self.evict_until(self.config.max_entries, self.config.max_states);
    }

    /// Evicts LRU entries down to *tighter-than-configured* bounds — the
    /// memory watchdog's lever: under pressure the server sheds cached
    /// verdicts (they are all re-derivable, by construction) before it sheds
    /// requests. The configured bounds are untouched; the cache refills to
    /// them as traffic returns.
    pub fn evict_to(&mut self, max_entries: usize, max_states: usize) {
        self.evict_until(max_entries, max_states);
    }

    /// Evicts least-recently-used entries until both bounds hold.
    fn evict_until(&mut self, max_entries: usize, max_states: usize) {
        while self.stats.entries > max_entries || self.stats.states > max_states {
            // Exceeded bounds imply an entry, and the recency index is in
            // sync with the map; either way an empty index ends the loop.
            let Some((_, victim)) = self.recency.pop_first() else {
                break;
            };
            let Some(evicted) = self.map.remove(&victim) else {
                continue;
            };
            self.stats.entries -= 1;
            self.stats.states -= evicted.states;
            self.stats.evictions += 1;
        }
    }

    /// The current counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u128) -> CacheKey {
        CacheKey(n)
    }

    fn report(tag: &str) -> Arc<str> {
        Arc::from(
            wire::Json::obj([("stable_line", wire::Json::str(tag))])
                .to_string()
                .as_str(),
        )
    }

    fn cache(max_entries: usize, max_states: usize) -> VerdictCache {
        VerdictCache::new(CacheConfig {
            max_entries,
            max_states,
        })
    }

    #[test]
    fn hits_replay_the_stored_report_byte_identically() {
        let mut c = cache(8, 1000);
        assert_eq!(c.get(key(1)), None);
        c.insert(key(1), 10, report("cold"));
        let hit = c.get(key(1)).expect("warm hit");
        assert_eq!(hit.to_string(), report("cold").to_string());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.states), (1, 1, 1, 10));
    }

    #[test]
    fn entry_bound_evicts_least_recently_used_first() {
        let mut c = cache(2, 1000);
        c.insert(key(1), 1, report("a"));
        c.insert(key(2), 1, report("b"));
        assert!(c.get(key(1)).is_some()); // refresh 1: now 2 is LRU
        c.insert(key(3), 1, report("c"));
        assert!(c.get(key(2)).is_none(), "LRU entry 2 evicted");
        assert!(c.get(key(1)).is_some());
        assert!(c.get(key(3)).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn state_budget_evicts_until_it_holds() {
        let mut c = cache(100, 100);
        c.insert(key(1), 60, report("a"));
        c.insert(key(2), 30, report("b"));
        // 60 + 30 + 50 > 100: evicts 1 (LRU), then still 30 + 50 <= 100.
        c.insert(key(3), 50, report("c"));
        assert!(c.get(key(1)).is_none());
        assert!(c.get(key(2)).is_some());
        assert_eq!(c.stats().states, 80);
    }

    #[test]
    fn oversized_reports_are_served_but_never_admitted() {
        let mut c = cache(8, 100);
        c.insert(key(1), 101, report("huge"));
        assert!(c.get(key(1)).is_none());
        assert_eq!(c.stats().uncacheable, 1);
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn reinserting_a_key_refreshes_in_place() {
        let mut c = cache(8, 1000);
        c.insert(key(1), 10, report("first"));
        c.insert(key(1), 20, report("second"));
        assert_eq!(c.stats().entries, 1);
        assert_eq!(c.stats().states, 20);
        assert_eq!(
            c.get(key(1)).unwrap().to_string(),
            report("second").to_string()
        );
    }

    #[test]
    fn evict_to_sheds_lru_entries_without_changing_the_bounds() {
        let mut c = cache(8, 1000);
        for n in 1..=4 {
            c.insert(key(n), 10, report("r"));
        }
        c.evict_to(2, 1000);
        assert_eq!(c.stats().entries, 2);
        assert_eq!(c.stats().evictions, 2);
        assert!(c.get(key(1)).is_none(), "oldest went first");
        assert!(c.get(key(4)).is_some(), "newest survives");
        // The configured bounds are untouched: the cache refills past the
        // temporary target.
        for n in 5..=8 {
            c.insert(key(n), 10, report("r"));
        }
        assert_eq!(c.stats().entries, 6);
    }

    #[test]
    fn zero_capacity_caches_nothing_and_never_panics() {
        let mut c = cache(0, 0);
        c.insert(key(1), 0, report("a"));
        assert!(c.get(key(1)).is_none());
        assert_eq!(c.stats().entries, 0);
    }
}
