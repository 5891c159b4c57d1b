//! Process-wide memory gauges for the slab engine.
//!
//! The parallel engine records its node-slot geometry here on every run —
//! lock-free atomics, last-writer-wins — so long-lived hosts (the serve
//! daemon's Prometheus endpoint, the bench harness) can export "how big
//! is the engine's working set" without threading a handle through
//! every entry point. These are *gauges*, not logs: reading returns the
//! most recent run's geometry, and a multi-field snapshot is not taken
//! under a lock (fields may straddle two concurrent runs — acceptable
//! for monitoring, where each field is individually truthful).
//!
//! [`peak_rss_bytes`] complements the logical slot accounting with the
//! allocator truth: the process's peak resident set, read from
//! `/proc/self/status` where the platform provides it.

use std::sync::atomic::{AtomicU64, Ordering};

/// Geometry of the parallel engine's node-slot buffers for one run.
///
/// `slab_bytes` is the engine's message storage: the two
/// double-buffered vectors of `Option<P::Message>` slots, one node slot
/// per node (see `crate::parallel`). It is a *type-level* bound —
/// messages owning heap payloads (e.g. `Vec`s) add indirect bytes the
/// slot size cannot see — which is exactly what makes it stable across
/// rounds and cheap to record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlabStats {
    /// Bytes of the two node-slot buffers: `2 × slots × size_of(slot)`.
    pub slab_bytes: u64,
    /// Node slots per buffer (the node count).
    pub slots: u64,
    /// Worker shards the node range was cut into.
    pub shards: u64,
    /// Node slots of the widest shard.
    pub max_shard_slots: u64,
}

static SLAB_BYTES: AtomicU64 = AtomicU64::new(0);
static SLOTS: AtomicU64 = AtomicU64::new(0);
static SHARDS: AtomicU64 = AtomicU64::new(0);
static MAX_SHARD_SLOTS: AtomicU64 = AtomicU64::new(0);

/// Publishes one run's slab geometry (last writer wins).
pub fn record_slab(stats: SlabStats) {
    SLAB_BYTES.store(stats.slab_bytes, Ordering::Relaxed);
    SLOTS.store(stats.slots, Ordering::Relaxed);
    SHARDS.store(stats.shards, Ordering::Relaxed);
    MAX_SHARD_SLOTS.store(stats.max_shard_slots, Ordering::Relaxed);
}

/// The most recently recorded slab geometry (zeroes before the first
/// parallel run of the process).
pub fn slab_snapshot() -> SlabStats {
    SlabStats {
        slab_bytes: SLAB_BYTES.load(Ordering::Relaxed),
        slots: SLOTS.load(Ordering::Relaxed),
        shards: SHARDS.load(Ordering::Relaxed),
        max_shard_slots: MAX_SHARD_SLOTS.load(Ordering::Relaxed),
    }
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`); `None` where the platform has no procfs.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_gauges_roundtrip() {
        record_slab(SlabStats {
            slab_bytes: 4096,
            slots: 256,
            shards: 4,
            max_shard_slots: 70,
        });
        // Other tests may run the parallel engine concurrently and
        // overwrite the gauges; assert presence, not exact values.
        let snap = slab_snapshot();
        assert!(snap.slab_bytes > 0);
        assert!(snap.slots > 0);
        assert!(snap.shards > 0);
        assert!(snap.max_shard_slots > 0);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_is_readable_and_plausible() {
        let rss = peak_rss_bytes().expect("procfs present on Linux");
        // A running test binary has resided in at least a megabyte.
        assert!(rss > 1 << 20, "implausible peak RSS {rss}");
    }
}
