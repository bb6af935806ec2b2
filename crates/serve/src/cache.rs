//! A small LRU cache of rendered response bodies for hot query/param
//! pairs.
//!
//! The daemon's answers are pure functions of the immutable index, so a
//! repeated query can be answered from the previous rendering. The cache stores the
//! response *tail* — everything after the `{"ok": true` head — because
//! the head embeds the caller's `id` echo token, which must be
//! re-applied per request. Only `"ok": true` answers are stored; error
//! responses are cheap to recompute and would otherwise pin garbage
//! keys. `stats` (daemon counters change under it) and `shutdown` are
//! never cached.
//!
//! Eviction is least-recently-used over a small bounded list; with the
//! default capacity a linear scan beats any map overhead. Hit and miss
//! totals are process-wide atomics so the `stats` query and the
//! observer layer ([`perigap_core::trace::QueryStats`]) can report
//! them without taking the list lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default number of rendered responses a daemon keeps.
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

/// A cached answer: the rendered response tail plus the row count the
/// observer should record.
#[derive(Clone, Debug)]
pub(crate) struct CachedAnswer {
    /// Response text after the `{"ok": true[, "id": …]` head.
    pub tail: String,
    /// Result rows the response carries.
    pub results: usize,
}

/// A bounded LRU cache of rendered response tails.
#[derive(Debug)]
pub struct ResponseCache {
    cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    /// LRU order: front is the coldest entry, back the hottest.
    entries: Mutex<Vec<(String, CachedAnswer)>>,
}

impl ResponseCache {
    /// A cache holding at most `cap` rendered responses. A zero `cap`
    /// disables storage but still counts every lookup as a miss.
    pub fn new(cap: usize) -> ResponseCache {
        ResponseCache {
            cap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Total lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total lookups that had to recompute.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Look up `key`, counting a hit or a miss and refreshing the
    /// entry's recency on a hit.
    pub(crate) fn lookup(&self, key: &str) -> Option<CachedAnswer> {
        let mut entries = self
            .entries
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        match entries.iter().position(|(k, _)| k == key) {
            Some(pos) => {
                let entry = entries.remove(pos);
                let answer = entry.1.clone();
                entries.push(entry);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(answer)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store (or refresh) `key`, evicting the coldest entry at
    /// capacity.
    pub(crate) fn insert(&self, key: String, answer: CachedAnswer) {
        if self.cap == 0 {
            return;
        }
        let mut entries = self
            .entries
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(pos) = entries.iter().position(|(k, _)| k == &key) {
            entries.remove(pos);
        } else if entries.len() >= self.cap {
            entries.remove(0);
        }
        entries.push((key, answer));
    }
}

impl Default for ResponseCache {
    fn default() -> ResponseCache {
        ResponseCache::new(DEFAULT_CACHE_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(tail: &str) -> CachedAnswer {
        CachedAnswer {
            tail: tail.to_string(),
            results: 1,
        }
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let cache = ResponseCache::new(4);
        assert!(cache.lookup("a").is_none());
        cache.insert("a".to_string(), answer("x"));
        assert_eq!(cache.lookup("a").unwrap().tail, "x");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let cache = ResponseCache::new(2);
        cache.insert("a".to_string(), answer("1"));
        cache.insert("b".to_string(), answer("2"));
        // Touch `a` so `b` is now the coldest entry.
        assert!(cache.lookup("a").is_some());
        cache.insert("c".to_string(), answer("3"));
        assert!(cache.lookup("b").is_none(), "coldest entry evicted");
        assert!(cache.lookup("a").is_some());
        assert!(cache.lookup("c").is_some());
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let cache = ResponseCache::new(2);
        cache.insert("a".to_string(), answer("old"));
        cache.insert("a".to_string(), answer("new"));
        cache.insert("b".to_string(), answer("2"));
        assert_eq!(cache.lookup("a").unwrap().tail, "new");
        assert!(cache.lookup("b").is_some());
    }

    #[test]
    fn zero_capacity_stores_nothing_but_counts() {
        let cache = ResponseCache::new(0);
        cache.insert("a".to_string(), answer("x"));
        assert!(cache.lookup("a").is_none());
        assert_eq!(cache.misses(), 1);
    }
}
