//! Memory-budgeted LRU cache for warm solver contexts.
//!
//! Each surgery session's [`SolverContext`](brainshift_fem::SolverContext)
//! holds the assembled stiffness matrix, the Dirichlet-reduced system, a
//! factored preconditioner, and the warm-start seed — hundreds of
//! megabytes for a clinical mesh. A service running many concurrent
//! surgeries cannot keep them all resident, so contexts live in this
//! cache charged against a byte budget: inserting past the budget evicts
//! the least-recently-used entries first. An evicted session is *not*
//! failed — its next job simply rebuilds the context (a cold solve
//! instead of a warm one). The degradation mode is latency, never OOM and
//! never an error.
//!
//! Checked-out entries ([`ContextCache::take`]) are the ones a worker is
//! actively solving with; they are excluded from the resident set and the
//! budget until returned, so a busy context can never be evicted from
//! under a solve.
//!
//! The cache is generic over the stored value with the byte size supplied
//! at insert, which keeps the eviction policy property-testable without
//! assembling FEM systems.

use std::collections::HashMap;

/// Running counters for cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `take` calls that found a warm entry.
    pub hits: u64,
    /// `take` calls that found nothing (cold build required).
    pub misses: u64,
    /// Entries dropped to stay inside the budget.
    pub evictions: u64,
}

struct Entry<T> {
    value: T,
    bytes: usize,
    /// Logical use time — larger = more recently used.
    touched: u64,
}

/// The LRU cache itself. Not internally synchronized: the service wraps
/// it in the scheduler mutex alongside the queue.
pub struct ContextCache<T> {
    budget_bytes: usize,
    resident_bytes: usize,
    clock: u64,
    entries: HashMap<u64, Entry<T>>,
    stats: CacheStats,
    evicted: Vec<(u64, usize)>,
}

impl<T> ContextCache<T> {
    /// An empty cache with `budget_bytes` of room for resident contexts.
    pub fn new(budget_bytes: usize) -> Self {
        ContextCache {
            budget_bytes,
            resident_bytes: 0,
            clock: 0,
            entries: HashMap::new(),
            stats: CacheStats::default(),
            evicted: Vec::new(),
        }
    }

    /// Bytes currently charged by resident (checked-in) entries.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Check out the context for `key`, recording a hit or miss. The
    /// entry leaves the cache (and the budget) until re-inserted.
    pub fn take(&mut self, key: u64) -> Option<T> {
        match self.entries.remove(&key) {
            Some(e) => {
                self.resident_bytes -= e.bytes;
                self.stats.hits += 1;
                Some(e.value)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Drop `key` without touching hit/miss counters (session closed).
    /// Returns the freed bytes.
    pub fn discard(&mut self, key: u64) -> Option<usize> {
        self.entries.remove(&key).map(|e| {
            self.resident_bytes -= e.bytes;
            e.bytes
        })
    }

    /// Check a context (back) in, charging `bytes` against the budget and
    /// evicting least-recently-used entries until it fits. A value larger
    /// than the whole budget is itself refused residency (immediately
    /// counted evicted) — the caller keeps working, just always cold.
    pub fn insert(&mut self, key: u64, value: T, bytes: usize) {
        if let Some(old) = self.entries.remove(&key) {
            self.resident_bytes -= old.bytes;
        }
        if bytes > self.budget_bytes {
            self.stats.evictions += 1;
            self.evicted.push((key, bytes));
            return;
        }
        while self.resident_bytes + bytes > self.budget_bytes {
            let lru = self
                .entries
                .iter()
                .min_by_key(|(k, e)| (e.touched, **k))
                .map(|(k, _)| *k);
            match lru {
                Some(k) => {
                    if let Some(e) = self.entries.remove(&k) {
                        self.resident_bytes -= e.bytes;
                        self.stats.evictions += 1;
                        self.evicted.push((k, e.bytes));
                    }
                }
                None => break,
            }
        }
        self.clock += 1;
        self.resident_bytes += bytes;
        self.entries.insert(key, Entry { value, bytes, touched: self.clock });
    }

    /// Drain the list of evictions since the last call — (key, bytes)
    /// pairs, in eviction order. The service turns these into
    /// [`Evict`](crate::events::EventKind::Evict) events.
    pub fn drain_evicted(&mut self) -> Vec<(u64, usize)> {
        std::mem::take(&mut self.evicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_counting() {
        let mut c: ContextCache<&str> = ContextCache::new(100);
        assert!(c.take(1).is_none());
        c.insert(1, "ctx", 10);
        assert_eq!(c.take(1), Some("ctx"));
        assert!(c.is_empty(), "take checks the entry out");
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn lru_eviction_respects_budget() {
        let mut c: ContextCache<u32> = ContextCache::new(100);
        c.insert(1, 10, 40);
        c.insert(2, 20, 40);
        // Touch 1 so 2 becomes the LRU.
        let v = c.take(1).expect("warm");
        c.insert(1, v, 40);
        c.insert(3, 30, 40); // forces one eviction: entry 2
        assert!(c.resident_bytes() <= c.budget_bytes);
        assert_eq!(c.drain_evicted(), vec![(2, 40)]);
        assert!(c.take(2).is_none(), "evicted entry is a miss");
        assert_eq!(c.take(1), Some(10), "recently used entry survived");
    }

    #[test]
    fn oversized_value_never_becomes_resident() {
        let mut c: ContextCache<u8> = ContextCache::new(10);
        c.insert(1, 0, 11);
        assert!(c.is_empty());
        assert_eq!(c.resident_bytes(), 0);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reinsert_replaces_charge_not_doubles_it() {
        let mut c: ContextCache<u8> = ContextCache::new(100);
        c.insert(1, 0, 60);
        c.insert(1, 0, 70); // grew after a reassembly
        assert_eq!(c.resident_bytes(), 70);
        assert_eq!(c.len(), 1);
    }
}
