//! The topology cache.
//!
//! Schedules ([`Schedule`]: coloring + palette + round bill) are pure
//! functions of `(dependency graph, seed)`, so requests sharing a
//! graph shape can reuse one schedule and pay only the fixing sweep.
//! The cache is keyed by [`lll_graphs::Graph::fingerprint`] — cheap,
//! label-sensitive, seed-independent — but a fingerprint is only a
//! hash: on every hit the stored graph is compared structurally
//! (`Graph: Eq`) before the schedule is reused, so a collision costs a
//! recompute, never a wrong schedule.
//!
//! An unbounded cache ([`TopologyCache::new`]) never evicts — the
//! daemon's workloads are bounded batches, and capacity 0
//! (`--cache-capacity 0`) is the cold baseline, storing nothing.
//! [`TopologyCache::with_capacity`] bounds the
//! entry count with least-recently-used eviction: every hit stamps the
//! entry with a monotone use tick, and an insert past capacity drops
//! the entry with the oldest stamp. Eviction only ever costs a
//! recompute on the next request for that shape — the recomputed
//! schedule is the same pure function of `(graph, seed)`, so responses
//! stay byte-identical.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;

use lll_core::dist::{Schedule, ScheduleKind};
use lll_graphs::Graph;

struct CacheEntry {
    graph: Graph,
    seed: u64,
    schedule: Arc<Schedule>,
    /// Monotone use stamp for LRU: updated on every hit and on insert.
    last_used: u64,
}

impl CacheEntry {
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<CacheEntry>() + self.graph.approx_bytes() + self.schedule.approx_bytes()
    }
}

/// A concurrent schedule cache with hit/miss/eviction counters.
///
/// Counters are observability only (stderr stats, metrics export);
/// they never reach a response body, which must stay byte-identical
/// hit vs. miss vs. post-eviction recompute.
pub struct TopologyCache {
    entries: Mutex<HashMap<u64, Vec<CacheEntry>>>,
    /// Maximum number of stored schedules; `None` = unbounded.
    capacity: Option<usize>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl TopologyCache {
    /// An empty, unbounded cache (never evicts).
    pub fn new() -> TopologyCache {
        TopologyCache::with_capacity(None)
    }

    /// An empty cache holding at most `capacity` schedules, evicting
    /// the least-recently-used entry when full. `None` is unbounded;
    /// `Some(0)` caches nothing (every request is a miss).
    pub fn with_capacity(capacity: Option<usize>) -> TopologyCache {
        TopologyCache {
            entries: Mutex::new(HashMap::new()),
            capacity,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Returns the cached schedule for `(g, seed, kind)`, or computes,
    /// stores, and returns it. The map lock is held across `compute`,
    /// so concurrent requests for the same shape compute the schedule
    /// once and the rest hit. At capacity 0 nothing is stored, so the
    /// lock is never taken: every call is a miss computed concurrently.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error; nothing is stored on failure.
    pub fn get_or_compute<E>(
        &self,
        g: &Graph,
        seed: u64,
        kind: ScheduleKind,
        compute: impl FnOnce() -> Result<Schedule, E>,
    ) -> Result<Arc<Schedule>, E> {
        if self.capacity == Some(0) {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return compute().map(Arc::new);
        }
        let fp = g.fingerprint();
        let mut entries = self.entries.lock().expect("cache lock poisoned");
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(bucket) = entries.get_mut(&fp) {
            for entry in bucket.iter_mut() {
                if entry.seed == seed && entry.schedule.kind() == kind && entry.graph == *g {
                    entry.last_used = stamp;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Arc::clone(&entry.schedule));
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let schedule = Arc::new(compute()?);
        if let Some(cap) = self.capacity {
            let len: usize = entries.values().map(Vec::len).sum();
            if len >= cap {
                Self::evict_lru(&mut entries);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        entries.entry(fp).or_default().push(CacheEntry {
            graph: g.clone(),
            seed,
            schedule: Arc::clone(&schedule),
            last_used: stamp,
        });
        Ok(schedule)
    }

    /// Removes the entry with the oldest `last_used` stamp. O(entries)
    /// scan — fine at daemon cache sizes, and only paid on insert past
    /// capacity.
    fn evict_lru(entries: &mut HashMap<u64, Vec<CacheEntry>>) {
        let victim = entries
            .iter()
            .flat_map(|(fp, bucket)| {
                bucket
                    .iter()
                    .enumerate()
                    .map(move |(i, e)| (e.last_used, *fp, i))
            })
            .min()
            .map(|(_, fp, i)| (fp, i));
        if let Some((fp, i)) = victim {
            let bucket = entries.get_mut(&fp).expect("victim bucket exists");
            bucket.remove(i);
            if bucket.is_empty() {
                entries.remove(&fp);
            }
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (= schedules computed) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by the LRU bound so far (always 0 unbounded).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of stored schedules.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .expect("cache lock poisoned")
            .values()
            .map(Vec::len)
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes of all cached graphs + schedules.
    /// Telemetry estimate (capacities, not allocator book-keeping).
    pub fn approx_bytes(&self) -> usize {
        self.entries
            .lock()
            .expect("cache lock poisoned")
            .values()
            .flatten()
            .map(CacheEntry::approx_bytes)
            .sum()
    }
}

impl Default for TopologyCache {
    fn default() -> TopologyCache {
        TopologyCache::new()
    }
}
