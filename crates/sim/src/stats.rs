//! Time-breakdown accounting.
//!
//! §4.1 of the paper decomposes the LOTS/JIAJIA execution-time gap into
//! (1) coherence-protocol efficiency, (2) object- vs page-based access
//! checking, and (3) large-object-space support, and §4.2 reports the
//! share of time spent in access checking. To reproduce those analyses
//! every node tracks *where* its virtual time went, per category.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::clock::SimDuration;

/// Category of virtual time spent on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeCategory {
    /// Application compute (element operations).
    Compute,
    /// Shared-object access checking (factor 2 of §4.1).
    AccessCheck,
    /// Large-object-space support: pinning + map checks + swap I/O
    /// (factor 3 of §4.1).
    LargeObject,
    /// Waiting on network transfers and remote service.
    Network,
    /// Disk I/O for the swap backing store.
    Disk,
    /// Twin creation, diff computation/application.
    Diffing,
    /// Synchronization stalls (barrier wait, lock wait).
    SyncWait,
    /// Protocol handler service on behalf of remote nodes.
    Handler,
}

pub const ALL_CATEGORIES: [TimeCategory; 8] = [
    TimeCategory::Compute,
    TimeCategory::AccessCheck,
    TimeCategory::LargeObject,
    TimeCategory::Network,
    TimeCategory::Disk,
    TimeCategory::Diffing,
    TimeCategory::SyncWait,
    TimeCategory::Handler,
];

impl TimeCategory {
    pub fn name(self) -> &'static str {
        match self {
            TimeCategory::Compute => "compute",
            TimeCategory::AccessCheck => "access-check",
            TimeCategory::LargeObject => "large-object",
            TimeCategory::Network => "network",
            TimeCategory::Disk => "disk",
            TimeCategory::Diffing => "diffing",
            TimeCategory::SyncWait => "sync-wait",
            TimeCategory::Handler => "handler",
        }
    }

    fn index(self) -> usize {
        match self {
            TimeCategory::Compute => 0,
            TimeCategory::AccessCheck => 1,
            TimeCategory::LargeObject => 2,
            TimeCategory::Network => 3,
            TimeCategory::Disk => 4,
            TimeCategory::Diffing => 5,
            TimeCategory::SyncWait => 6,
            TimeCategory::Handler => 7,
        }
    }
}

/// Lock-free per-node accumulator of virtual time by category, plus
/// event counters used by the §4.2 analysis.
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    inner: Arc<NodeStatsInner>,
}

#[derive(Debug, Default)]
struct NodeStatsInner {
    time_ns: [AtomicU64; 8],
    access_checks: AtomicU64,
    swaps_out: AtomicU64,
    swaps_in: AtomicU64,
    swap_out_bytes: AtomicU64,
    swap_in_bytes: AtomicU64,
    swap_batches: AtomicU64,
    prefetch_hits: AtomicU64,
    page_faults: AtomicU64,
    diffs_created: AtomicU64,
    diff_bytes_sent: AtomicU64,
    objects_freed: AtomicU64,
    freed_object_bytes: AtomicU64,
    dmm_free_bytes: AtomicU64,
    dmm_largest_hole: AtomicU64,
    home_requests_served: AtomicU64,
    home_bytes_served: AtomicU64,
    versions_published: AtomicU64,
    versions_reclaimed: AtomicU64,
    rejoin_rounds: AtomicU64,
    rejoin_log_bytes: AtomicU64,
    rejoin_peer_bytes: AtomicU64,
    log_records: AtomicU64,
    log_bytes_appended: AtomicU64,
    compaction_runs: AtomicU64,
    compaction_bytes_reclaimed: AtomicU64,
    checkpoint_bytes: AtomicU64,
    restore_replay_barriers: AtomicU64,
}

impl NodeStats {
    pub fn new() -> NodeStats {
        NodeStats::default()
    }

    #[inline]
    pub fn charge(&self, cat: TimeCategory, d: SimDuration) {
        self.inner.time_ns[cat.index()].fetch_add(d.0, Ordering::Relaxed);
    }

    #[inline]
    pub fn time_in(&self, cat: TimeCategory) -> SimDuration {
        SimDuration(self.inner.time_ns[cat.index()].load(Ordering::Relaxed))
    }

    pub fn total_accounted(&self) -> SimDuration {
        SimDuration(
            self.inner
                .time_ns
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .sum(),
        )
    }

    #[inline]
    pub fn count_access_checks(&self, n: u64) {
        self.inner.access_checks.fetch_add(n, Ordering::Relaxed);
    }

    pub fn access_checks(&self) -> u64 {
        self.inner.access_checks.load(Ordering::Relaxed)
    }

    /// Record one object swapped out, with the bytes actually written
    /// to the backing store (compressed size when compression is on).
    #[inline]
    pub fn count_swap_out(&self, stored_bytes: u64) {
        self.inner.swaps_out.fetch_add(1, Ordering::Relaxed);
        self.inner
            .swap_out_bytes
            .fetch_add(stored_bytes, Ordering::Relaxed);
    }

    /// Record one object swapped back in, with the bytes actually read
    /// from the backing store.
    #[inline]
    pub fn count_swap_in(&self, stored_bytes: u64) {
        self.inner.swaps_in.fetch_add(1, Ordering::Relaxed);
        self.inner
            .swap_in_bytes
            .fetch_add(stored_bytes, Ordering::Relaxed);
    }

    /// Record one batched eviction trip to the disk device.
    #[inline]
    pub fn count_swap_batch(&self) {
        self.inner.swap_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a swap-in served from the read-ahead buffer.
    #[inline]
    pub fn count_prefetch_hit(&self) {
        self.inner.prefetch_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn swaps_out(&self) -> u64 {
        self.inner.swaps_out.load(Ordering::Relaxed)
    }

    pub fn swaps_in(&self) -> u64 {
        self.inner.swaps_in.load(Ordering::Relaxed)
    }

    /// Bytes written to the backing store by swap-outs (post-compression).
    pub fn swap_out_bytes(&self) -> u64 {
        self.inner.swap_out_bytes.load(Ordering::Relaxed)
    }

    /// Bytes read from the backing store by swap-ins (post-compression).
    pub fn swap_in_bytes(&self) -> u64 {
        self.inner.swap_in_bytes.load(Ordering::Relaxed)
    }

    /// Batched eviction trips booked on the disk device. The mean batch
    /// size is `swaps_out_written / swap_batches` (clean re-evictions
    /// skip the disk and belong to no batch).
    pub fn swap_batches(&self) -> u64 {
        self.inner.swap_batches.load(Ordering::Relaxed)
    }

    /// Swap-ins that hit the read-ahead buffer instead of issuing a
    /// demand read.
    pub fn prefetch_hits(&self) -> u64 {
        self.inner.prefetch_hits.load(Ordering::Relaxed)
    }

    /// Record one object reclaimed by the lifecycle API, with its
    /// logical byte size.
    #[inline]
    pub fn count_object_freed(&self, logical_bytes: u64) {
        self.inner.objects_freed.fetch_add(1, Ordering::Relaxed);
        self.inner
            .freed_object_bytes
            .fetch_add(logical_bytes, Ordering::Relaxed);
    }

    /// Objects reclaimed by `free` (counted at barrier reclamation).
    pub fn objects_freed(&self) -> u64 {
        self.inner.objects_freed.load(Ordering::Relaxed)
    }

    /// Cumulative logical bytes of objects reclaimed by `free`.
    pub fn freed_object_bytes(&self) -> u64 {
        self.inner.freed_object_bytes.load(Ordering::Relaxed)
    }

    /// Mirror the DMM allocator's fragmentation gauges (free bytes and
    /// largest free extent); updated by the owning node on every
    /// allocator transition.
    #[inline]
    pub fn set_dmm_gauges(&self, free_bytes: u64, largest_hole: u64) {
        self.inner
            .dmm_free_bytes
            .store(free_bytes, Ordering::Relaxed);
        self.inner
            .dmm_largest_hole
            .store(largest_hole, Ordering::Relaxed);
    }

    /// Bytes currently free in the DMM arena (gauge).
    pub fn dmm_free_bytes(&self) -> u64 {
        self.inner.dmm_free_bytes.load(Ordering::Relaxed)
    }

    /// Largest contiguous free DMM extent (gauge).
    pub fn dmm_largest_hole(&self) -> u64 {
        self.inner.dmm_largest_hole.load(Ordering::Relaxed)
    }

    /// Record one copy/page request this node served as home, with the
    /// payload bytes shipped. The per-node spread of this counter is
    /// the home-load profile that striping flattens.
    #[inline]
    pub fn count_home_request(&self, bytes: u64) {
        self.inner
            .home_requests_served
            .fetch_add(1, Ordering::Relaxed);
        self.inner
            .home_bytes_served
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Object/page copy requests this node served as home.
    pub fn home_requests_served(&self) -> u64 {
        self.inner.home_requests_served.load(Ordering::Relaxed)
    }

    /// Payload bytes this node shipped serving home requests.
    pub fn home_bytes_served(&self) -> u64 {
        self.inner.home_bytes_served.load(Ordering::Relaxed)
    }

    /// Record one immutable segment version published at a barrier
    /// (counted at the segment's home).
    #[inline]
    pub fn count_version_published(&self) {
        self.inner
            .versions_published
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Immutable segment versions published at barriers.
    pub fn versions_published(&self) -> u64 {
        self.inner.versions_published.load(Ordering::Relaxed)
    }

    /// Record one superseded segment version reclaimed at a barrier
    /// (its twin snapshot discarded).
    #[inline]
    pub fn count_version_reclaimed(&self) {
        self.inner
            .versions_reclaimed
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Superseded segment versions reclaimed at barriers.
    pub fn versions_reclaimed(&self) -> u64 {
        self.inner.versions_reclaimed.load(Ordering::Relaxed)
    }

    /// Record one crash-rejoin round completed by this node, with the
    /// directory/name-table/master bytes re-fetched from peer replicas.
    #[inline]
    pub fn count_rejoin(&self, peer_bytes: u64) {
        self.inner.rejoin_rounds.fetch_add(1, Ordering::Relaxed);
        self.inner
            .rejoin_peer_bytes
            .fetch_add(peer_bytes, Ordering::Relaxed);
    }

    /// Record journal bytes a rejoining node read back from its own
    /// durable log (persistence on: masters rebuilt locally instead of
    /// being re-shipped by peers).
    #[inline]
    pub fn count_rejoin_log_bytes(&self, bytes: u64) {
        self.inner
            .rejoin_log_bytes
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Crash-rejoin rounds this node went through.
    pub fn rejoin_rounds(&self) -> u64 {
        self.inner.rejoin_rounds.load(Ordering::Relaxed)
    }

    /// Total bytes a rejoin cost, from either source.
    pub fn rejoin_bytes(&self) -> u64 {
        self.rejoin_log_bytes() + self.rejoin_peer_bytes()
    }

    /// Journal bytes read back from the node's own log during rejoins.
    pub fn rejoin_log_bytes(&self) -> u64 {
        self.inner.rejoin_log_bytes.load(Ordering::Relaxed)
    }

    /// Directory/name-table/master bytes re-fetched from peers during
    /// rejoins.
    pub fn rejoin_peer_bytes(&self) -> u64 {
        self.inner.rejoin_peer_bytes.load(Ordering::Relaxed)
    }

    /// Record one barrier's journal append batch.
    #[inline]
    pub fn count_log_append(&self, records: u64, bytes: u64) {
        self.inner.log_records.fetch_add(records, Ordering::Relaxed);
        self.inner
            .log_bytes_appended
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Journal records appended by this node.
    pub fn log_records(&self) -> u64 {
        self.inner.log_records.load(Ordering::Relaxed)
    }

    /// Journal bytes appended by this node.
    pub fn log_bytes_appended(&self) -> u64 {
        self.inner.log_bytes_appended.load(Ordering::Relaxed)
    }

    /// Record one background compaction run and the log bytes it
    /// reclaimed.
    #[inline]
    pub fn count_compaction(&self, bytes_reclaimed: u64) {
        self.inner.compaction_runs.fetch_add(1, Ordering::Relaxed);
        self.inner
            .compaction_bytes_reclaimed
            .fetch_add(bytes_reclaimed, Ordering::Relaxed);
    }

    /// Background compaction runs on this node's log.
    pub fn compaction_runs(&self) -> u64 {
        self.inner.compaction_runs.load(Ordering::Relaxed)
    }

    /// Log bytes reclaimed by compaction.
    pub fn compaction_bytes_reclaimed(&self) -> u64 {
        self.inner
            .compaction_bytes_reclaimed
            .load(Ordering::Relaxed)
    }

    /// Record the bytes of one sealed checkpoint manifest.
    #[inline]
    pub fn count_checkpoint(&self, manifest_bytes: u64) {
        self.inner
            .checkpoint_bytes
            .fetch_add(manifest_bytes, Ordering::Relaxed);
    }

    /// Checkpoint manifest bytes appended by this node.
    pub fn checkpoint_bytes(&self) -> u64 {
        self.inner.checkpoint_bytes.load(Ordering::Relaxed)
    }

    /// Record one barrier replayed beyond the restored checkpoint.
    #[inline]
    pub fn count_restore_replay_barrier(&self) {
        self.inner
            .restore_replay_barriers
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Barriers this node replayed past the checkpoint it restored
    /// from (0 outside restore runs).
    pub fn restore_replay_barriers(&self) -> u64 {
        self.inner.restore_replay_barriers.load(Ordering::Relaxed)
    }

    #[inline]
    pub fn count_page_fault(&self) {
        self.inner.page_faults.fetch_add(1, Ordering::Relaxed);
    }

    pub fn page_faults(&self) -> u64 {
        self.inner.page_faults.load(Ordering::Relaxed)
    }

    #[inline]
    pub fn count_diff(&self, bytes_sent: u64) {
        self.inner.diffs_created.fetch_add(1, Ordering::Relaxed);
        self.inner
            .diff_bytes_sent
            .fetch_add(bytes_sent, Ordering::Relaxed);
    }

    pub fn diffs_created(&self) -> u64 {
        self.inner.diffs_created.load(Ordering::Relaxed)
    }

    pub fn diff_bytes_sent(&self) -> u64 {
        self.inner.diff_bytes_sent.load(Ordering::Relaxed)
    }

    /// Render a one-line breakdown, for harness output.
    pub fn breakdown(&self) -> String {
        let mut parts = Vec::with_capacity(ALL_CATEGORIES.len());
        for cat in ALL_CATEGORIES {
            let t = self.time_in(cat);
            if t > SimDuration::ZERO {
                parts.push(format!("{}={}", cat.name(), t));
            }
        }
        parts.join(" ")
    }
}

/// Whole-run counters from the virtual-time scheduler, reported once
/// per cluster run.
///
/// `turns`, `wakes`, and `epochs` are pure functions of the simulated
/// schedule: identical across `Deterministic` and `Parallel` runs of
/// the same workload, and part of the byte-identity contract.
/// `max_concurrent` and `worker_busy_ns` describe the *host* execution
/// (how wide batches got against the worker cap, wall time each pool
/// slot spent running tasks); they are informative only and excluded
/// from cross-engine comparisons.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedSummary {
    /// Task dispatches over the whole run.
    pub turns: u64,
    /// Wake calls delivered (including sticky wakes and hints).
    pub wakes: u64,
    /// Epoch barriers crossed (batch selections).
    pub epochs: u64,
    /// Largest number of tasks dispatched concurrently in any epoch,
    /// capped by the worker pool width. Host-side; informative only.
    pub max_concurrent: usize,
    /// Host nanoseconds each worker-pool slot spent running tasks.
    /// Host-side; informative only.
    pub worker_busy_ns: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_and_read_back() {
        let s = NodeStats::new();
        s.charge(TimeCategory::Compute, SimDuration(100));
        s.charge(TimeCategory::Compute, SimDuration(50));
        s.charge(TimeCategory::Disk, SimDuration(7));
        assert_eq!(s.time_in(TimeCategory::Compute), SimDuration(150));
        assert_eq!(s.time_in(TimeCategory::Disk), SimDuration(7));
        assert_eq!(s.time_in(TimeCategory::Network), SimDuration::ZERO);
        assert_eq!(s.total_accounted(), SimDuration(157));
    }

    #[test]
    fn counters_accumulate() {
        let s = NodeStats::new();
        s.count_access_checks(10);
        s.count_access_checks(5);
        s.count_swap_out(100);
        s.count_swap_in(60);
        s.count_swap_in(40);
        s.count_swap_batch();
        s.count_prefetch_hit();
        s.count_diff(128);
        s.count_diff(64);
        s.count_home_request(4096);
        s.count_home_request(512);
        s.count_version_published();
        s.count_version_published();
        s.count_version_reclaimed();
        assert_eq!(s.home_requests_served(), 2);
        assert_eq!(s.home_bytes_served(), 4608);
        assert_eq!(s.versions_published(), 2);
        assert_eq!(s.versions_reclaimed(), 1);
        assert_eq!(s.access_checks(), 15);
        assert_eq!(s.swaps_out(), 1);
        assert_eq!(s.swaps_in(), 2);
        assert_eq!(s.swap_out_bytes(), 100);
        assert_eq!(s.swap_in_bytes(), 100);
        assert_eq!(s.swap_batches(), 1);
        assert_eq!(s.prefetch_hits(), 1);
        assert_eq!(s.diffs_created(), 2);
        assert_eq!(s.diff_bytes_sent(), 192);
    }

    #[test]
    fn lifecycle_counters_and_gauges() {
        let s = NodeStats::new();
        s.count_object_freed(4096);
        s.count_object_freed(1024);
        assert_eq!(s.objects_freed(), 2);
        assert_eq!(s.freed_object_bytes(), 5120);
        s.set_dmm_gauges(1000, 400);
        s.set_dmm_gauges(800, 300); // gauges overwrite, not accumulate
        assert_eq!(s.dmm_free_bytes(), 800);
        assert_eq!(s.dmm_largest_hole(), 300);
    }

    #[test]
    fn persistence_counters_accumulate() {
        let s = NodeStats::new();
        s.count_log_append(5, 512);
        s.count_log_append(2, 100);
        s.count_compaction(300);
        s.count_checkpoint(128);
        s.count_restore_replay_barrier();
        s.count_restore_replay_barrier();
        s.count_rejoin(1000);
        s.count_rejoin_log_bytes(400);
        assert_eq!(s.log_records(), 7);
        assert_eq!(s.log_bytes_appended(), 612);
        assert_eq!(s.compaction_runs(), 1);
        assert_eq!(s.compaction_bytes_reclaimed(), 300);
        assert_eq!(s.checkpoint_bytes(), 128);
        assert_eq!(s.restore_replay_barriers(), 2);
        assert_eq!(s.rejoin_rounds(), 1);
        assert_eq!(s.rejoin_peer_bytes(), 1000);
        assert_eq!(s.rejoin_log_bytes(), 400);
        assert_eq!(s.rejoin_bytes(), 1400);
    }

    #[test]
    fn clones_share_counters() {
        let s = NodeStats::new();
        let s2 = s.clone();
        s.count_page_fault();
        assert_eq!(s2.page_faults(), 1);
    }

    #[test]
    fn breakdown_lists_only_nonzero() {
        let s = NodeStats::new();
        s.charge(TimeCategory::Network, SimDuration::from_micros(3));
        let b = s.breakdown();
        assert!(b.contains("network="));
        assert!(!b.contains("compute="));
    }

    #[test]
    fn all_categories_have_distinct_indices() {
        let mut seen = std::collections::HashSet::new();
        for c in ALL_CATEGORIES {
            assert!(seen.insert(c.index()));
        }
    }
}
