//! The JIAJIA runtime: the [`Jia`] protocol on the cluster harness
//! LOTS runs on (`lots_core::harness`).
//!
//! Same tasks per node (an application task plus a comm task serving
//! page fetches and diff flushes against the node's [`JiaNode`]), same
//! engine, same seed, fault, persistence and shutdown plumbing — the
//! harness is literally shared, which is what makes LOTS-vs-JIAJIA
//! deltas attributable to the protocols, not the harness.

use std::sync::Arc;

use lots_core::diff::WordDiff;
use lots_core::harness::{self, NodeParts, NodeSummary, Options, Protocol, Report};
use lots_core::Placement;
use lots_net::{Envelope, NetSender, NodeId};
use lots_persist::{PersistConfig, RestoredCluster};
use lots_sim::{CpuModel, DiskQueue, MachineConfig, NodeStats, SimClock, TimeCategory};
use parking_lot::Mutex;

use crate::api::{JMsg, JiaDsm};
use crate::node::JiaNode;
use crate::services::{JiaBarrier, JiaLocks};

/// The JIAJIA protocol's own options (see [`JiaOptions`]).
pub struct Jia {
    /// Shared-space size (v1.1 default limit: 128 MB, §2 of the paper).
    pub shared_bytes: usize,
    /// Default page placement for unadorned allocations (the
    /// per-alloc `*_placed` variants override it).
    pub placement: Placement,
    /// Persistence configuration (`None` — the default — disables the
    /// diff journal entirely and the run is bit-identical to earlier
    /// builds). JIAJIA journals *page* diffs: the journal's object id
    /// is the page index.
    pub persist: Option<PersistConfig>,
}

/// Options for a JIAJIA cluster run:
/// `JiaOptions::new(n, shared_bytes, machine)`, round-robin placement.
pub type JiaOptions = Options<Jia>;

/// Per-node outcome of a JIAJIA run.
pub type JiaNodeReport = NodeSummary;

/// Cluster-wide outcome of a JIAJIA run.
pub type JiaReport = Report<JiaNodeReport>;

/// Run an SPMD application on a simulated JIAJIA cluster.
pub fn run_jiajia_cluster<R, F>(opts: JiaOptions, app: F) -> (Vec<R>, JiaReport)
where
    R: Send + 'static,
    F: Fn(&JiaDsm) -> R + Send + Sync + 'static,
{
    harness::run(opts, app)
}

/// Cold-start restore of a JIAJIA cluster from its journals: see
/// `lots_core::harness::restore`. `opts` must carry the same cluster
/// shape and [`Jia::persist`] policy as the original run.
pub fn restore_jiajia_cluster<R, F>(
    restored: Arc<RestoredCluster>,
    opts: JiaOptions,
    app: F,
) -> (Vec<R>, JiaReport)
where
    R: Send + 'static,
    F: Fn(&JiaDsm) -> R + Send + Sync + 'static,
{
    harness::restore(restored, opts, app)
}

impl Protocol for Jia {
    type Arg = usize;
    type Msg = JMsg;
    type Node = JiaNode;
    type Services = (Arc<JiaBarrier>, Arc<JiaLocks>);
    type Dsm = JiaDsm;
    type NodeReport = JiaNodeReport;

    const NAME: &'static str = "jia";

    fn configure(shared_bytes: usize, _machine: &MachineConfig) -> Jia {
        Jia {
            shared_bytes,
            placement: Placement::RoundRobin,
            persist: None,
        }
    }

    fn persist(&mut self) -> &mut Option<PersistConfig> {
        &mut self.persist
    }

    fn validate(opts: &JiaOptions) {
        assert!(
            opts.faults.crash_node.is_none(),
            "crash-rejoin is a LOTS-only fault: JIAJIA keeps no per-node swap \
             store to rebuild from (use loss/partition faults here instead)"
        );
    }

    fn services(opts: &JiaOptions) -> Self::Services {
        (
            Arc::new(JiaBarrier::new(opts.n)),
            Arc::new(JiaLocks::new(opts.n)),
        )
    }

    fn poison((barrier, locks): &Self::Services) {
        barrier.poison();
        locks.poison();
    }

    fn node(
        opts: &JiaOptions,
        me: NodeId,
        cpu: CpuModel,
        clock: SimClock,
        stats: NodeStats,
    ) -> JiaNode {
        let mut jn = JiaNode::new(me, opts.n, opts.proto.shared_bytes, cpu, clock, stats);
        jn.default_placement = opts.proto.placement;
        if opts.proto.persist.is_some() {
            jn.enable_persist_disk(opts.machine.disk);
        }
        jn
    }

    fn disk(node: &mut JiaNode) -> Option<&mut DiskQueue> {
        node.diskq.as_mut()
    }

    fn handle(
        node: &Mutex<JiaNode>,
        net: &NetSender<JMsg>,
        env: Envelope<JMsg>,
    ) -> Option<Envelope<JMsg>> {
        let src = env.src;
        match env.msg {
            JMsg::PageReq { page } => {
                let (bytes, version, done) = {
                    let mut st = node.lock();
                    st.stats.charge(TimeCategory::Handler, st.cpu.handler_entry);
                    st.clock.advance(st.cpu.handler_entry);
                    let (b, v) = st.serve_page(page as usize);
                    st.stats.count_home_request(b.len() as u64);
                    (b, v, st.clock.now().max(env.arrival))
                };
                net.send(src, JMsg::PageReply { page, version }, bytes.into(), done);
                None
            }
            JMsg::DiffSend { page } => {
                let done = {
                    let mut st = node.lock();
                    st.stats.charge(TimeCategory::Handler, st.cpu.handler_entry);
                    st.clock.advance(st.cpu.handler_entry);
                    let diff = WordDiff::decode(&env.payload);
                    st.apply_remote_diff(page as usize, &diff);
                    st.clock.now().max(env.arrival)
                };
                net.send(src, JMsg::DiffAck { page }, Default::default(), done);
                None
            }
            JMsg::PageReply { .. } | JMsg::DiffAck { .. } => Some(env),
        }
    }

    fn dsm(parts: NodeParts<Jia>) -> JiaDsm {
        let (barrier, locks) = parts.services;
        JiaDsm {
            me: parts.ctx.me,
            ctx: parts.ctx,
            node: parts.node,
            n: parts.net.cluster_size(),
            net: parts.net,
            replies: parts.replies,
            barrier,
            locks,
            seed: parts.seed,
            fault_barrier: parts.fault_barrier,
            barriers_entered: std::cell::Cell::new(0),
            live_views: std::cell::Cell::new(0),
            view_spans: std::cell::RefCell::new(Vec::new()),
            view_token: std::cell::Cell::new(0),
            analyze: parts.analyze,
            journal: parts.journal,
        }
    }

    fn node_report(summary: NodeSummary, _node: &JiaNode) -> JiaNodeReport {
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lots_core::{DsmApi, DsmSlice};
    use lots_persist::PersistStore;
    use lots_sim::machine::p4_fedora;
    use lots_sim::FaultPlan;

    fn opts(n: usize) -> JiaOptions {
        JiaOptions::new(n, 256 * 4096, p4_fedora())
    }

    #[test]
    fn single_node_roundtrip() {
        let (results, report) = run_jiajia_cluster(opts(1), |dsm| {
            let a = dsm.alloc::<i32>(100);
            a.write(5, 42);
            dsm.barrier();
            a.read(5)
        });
        assert_eq!(results, vec![42]);
        // Home-local accesses cost nothing in a page DSM (no software
        // checks — §4.1 factor 2); only the barrier accrues time.
        assert!(report.exec_time.nanos() > 0);
    }

    #[test]
    fn writes_visible_after_barrier() {
        let (results, _) = run_jiajia_cluster(opts(2), |dsm| {
            let a = dsm.alloc::<i32>(2048);
            if dsm.me() == 1 {
                // Page 0's home is node 0: node 1 writes a non-home page.
                a.write(3, 77);
            }
            dsm.barrier();
            a.read(3)
        });
        assert_eq!(results, vec![77, 77]);
    }

    #[test]
    fn false_sharing_merges_at_home() {
        let (results, report) = run_jiajia_cluster(opts(4), |dsm| {
            let a = dsm.alloc::<i32>(8); // one page, 4 writers
            a.write(dsm.me(), dsm.me() as i32 + 1);
            dsm.barrier();
            (0..4).map(|i| a.read(i)).sum::<i32>()
        });
        assert_eq!(results, vec![10, 10, 10, 10]);
        // Write-write false sharing: three non-home writers each sent a
        // whole-page-fault + diff; readers refetched the page.
        let faults: u64 = report.nodes.iter().map(|n| n.stats.page_faults()).sum();
        assert!(faults >= 6, "faults {faults}");
    }

    #[test]
    fn lock_transfers_updates_via_home() {
        let (results, _) = run_jiajia_cluster(opts(2), |dsm| {
            let a = dsm.alloc::<i32>(4);
            for _ in 0..10 {
                dsm.lock(1);
                let v = a.read(0);
                a.write(0, v + 1);
                dsm.unlock(1);
            }
            dsm.barrier();
            a.read(0)
        });
        assert_eq!(results, vec![20, 20]);
    }

    #[test]
    #[should_panic(expected = "node 1 exploded")]
    fn peer_panic_fails_loudly_instead_of_hanging() {
        let _ = run_jiajia_cluster(opts(2), |dsm| {
            let a = dsm.alloc::<i32>(16);
            if dsm.me() == 1 {
                panic!("node 1 exploded");
            }
            dsm.barrier();
            a.read(0)
        });
    }

    #[test]
    fn page_granularity_traffic() {
        // Reading one i32 from a remote page moves a whole 4 KB page.
        let (_, report) = run_jiajia_cluster(opts(2), |dsm| {
            let a = dsm.alloc::<i32>(2048);
            if dsm.me() == 0 {
                a.write(0, 1);
            }
            dsm.barrier();
            a.read(0)
        });
        let bytes: u64 = report.nodes.iter().map(|n| n.traffic.bytes_sent()).sum();
        assert!(bytes >= 4096, "page fetch moves ≥ one page, got {bytes}");
    }

    #[test]
    fn lossy_network_with_retransmission_preserves_values() {
        let kernel = |dsm: &JiaDsm| {
            let a = dsm.alloc::<i32>(2048);
            a.write(dsm.me() * 16, dsm.me() as i32 + 1);
            dsm.barrier();
            (0..3).map(|i| a.read(i * 16)).sum::<i32>()
        };
        let base = run_jiajia_cluster(opts(3), kernel);
        let o = opts(3).with_faults(FaultPlan {
            seed: 5,
            loss_permille: 80,
            dup_permille: 40,
            ..FaultPlan::none()
        });
        let lossy = run_jiajia_cluster(o, kernel);
        assert_eq!(base.0, lossy.0, "lossy run must compute the same values");
        let dropped: u64 = lossy.1.nodes.iter().map(|n| n.traffic.msgs_dropped()).sum();
        assert_eq!(dropped, 0, "the reliable layer must recover every loss");
        assert!(lossy.1.exec_time >= base.1.exec_time);
    }

    #[test]
    #[should_panic(expected = "crash-rejoin is a LOTS-only fault")]
    fn crash_fault_is_rejected_up_front() {
        let o = opts(2).with_faults(FaultPlan {
            crash_node: Some(lots_sim::CrashFault {
                node: 1,
                at_barrier: 1,
                reboot: lots_sim::SimDuration::from_millis(1),
            }),
            ..FaultPlan::none()
        });
        let _ = run_jiajia_cluster(o, |dsm| dsm.me());
    }

    #[test]
    fn persistence_journals_checkpoints_and_replays_identically() {
        let kernel = |dsm: &JiaDsm| {
            let a = dsm.alloc::<i32>(2048);
            a.write(dsm.me() * 16, dsm.me() as i32 + 1);
            dsm.barrier();
            let s: i32 = (0..3).map(|i| a.read(i * 16)).sum();
            dsm.barrier();
            s
        };
        let store = PersistStore::new(3);
        let o = opts(3)
            .with_persist(PersistConfig::every(1))
            .with_persist_store(store.clone());
        let (r1, rep1) = run_jiajia_cluster(o, kernel);
        assert!(
            rep1.nodes
                .iter()
                .map(|n| n.stats.log_records())
                .sum::<u64>()
                > 0
        );
        assert!(
            rep1.nodes
                .iter()
                .map(|n| n.stats.checkpoint_bytes())
                .sum::<u64>()
                > 0
        );
        let restored = store.restore().expect("journals restore");
        assert_eq!(restored.checkpoint_seq, 2, "both barriers checkpointed");
        let (r2, rep2) = restore_jiajia_cluster(
            Arc::new(restored),
            opts(3).with_persist(PersistConfig::every(1)),
            kernel,
        );
        assert_eq!(r1, r2, "replay must compute the same values");
        let fp = |rep: &JiaReport| -> String {
            rep.nodes
                .iter()
                .map(|nd| {
                    format!(
                        "{}:{}:{}:{};",
                        nd.me,
                        nd.time.nanos(),
                        nd.stats.page_faults(),
                        nd.traffic.bytes_sent()
                    )
                })
                .collect()
        };
        assert_eq!(fp(&rep1), fp(&rep2), "replay must be byte-identical");
    }

    #[test]
    fn persistence_off_leaves_reports_unchanged() {
        let kernel = |dsm: &JiaDsm| {
            let a = dsm.alloc::<i32>(2048);
            a.write(dsm.me() * 8, 7);
            dsm.barrier();
            a.read(8)
        };
        let plain = run_jiajia_cluster(opts(2), kernel);
        let journaled = run_jiajia_cluster(opts(2).with_persist(PersistConfig::every(1)), kernel);
        assert_eq!(plain.0, journaled.0);
        // The journal is write-behind and JIAJIA reads nothing back
        // from disk mid-run, so virtual times are unchanged.
        assert_eq!(plain.1.exec_time, journaled.1.exec_time);
        assert_eq!(plain.1.nodes[0].stats.log_records(), 0);
        assert!(journaled.1.nodes[0].stats.log_records() > 0);
    }

    #[test]
    fn deterministic_mode_reproduces_reports_exactly() {
        let kernel = |dsm: &JiaDsm| {
            let a = dsm.alloc::<i32>(2048);
            a.write(dsm.me() * 8, dsm.me() as i32 + 1);
            dsm.barrier();
            dsm.lock(3);
            let v = a.read(0);
            a.write(0, v + 1);
            dsm.unlock(3);
            dsm.barrier();
            a.read(0) + a.read(8)
        };
        let run = || {
            let (results, report) = run_jiajia_cluster(opts(3), kernel);
            let fp: String = report
                .nodes
                .iter()
                .map(|nd| {
                    format!(
                        "{}:{}:{}:{};",
                        nd.me,
                        nd.time.nanos(),
                        nd.stats.page_faults(),
                        nd.traffic.bytes_sent()
                    )
                })
                .collect();
            (results, fp)
        };
        let (r1, f1) = run();
        let (r2, f2) = run();
        assert_eq!(r1, r2);
        assert_eq!(f1, f2, "same seed must give byte-identical reports");
    }
}
