//! The LOTS runtime: the [`Lots`] protocol on the shared cluster
//! harness ([`crate::harness`]).
//!
//! Each node's application task runs the user's SPMD closure against a
//! [`Dsm`] handle; its comm task, the analogue of the paper's SIGIO
//! handler (§3.6), serves object fetches and barrier diff propagation
//! against the node's [`NodeState`]. [`run_cluster`] and
//! [`restore_cluster`] are the LOTS entry points; the JIAJIA baseline
//! runs on the same harness, task for task.

use std::sync::Arc;

use lots_disk::{BackingStore, MemStore};
use lots_net::{Envelope, NetSender, NodeId, TrafficStats};
use lots_persist::{PersistConfig, RestoredCluster};
use lots_sim::{CpuModel, DiskQueue, MachineConfig, NodeStats, SimClock, SimInstant, TimeCategory};
use parking_lot::Mutex;

use crate::api::Dsm;
use crate::config::LotsConfig;
use crate::consistency::barrier::BarrierService;
use crate::consistency::locks::LockService;
use crate::diff::WordDiff;
use crate::harness::{self, NodeParts, NodeSummary, Options, Protocol, Report};
use crate::node::NodeState;
use crate::protocol::messages::Msg;

/// The LOTS protocol's own options (see [`ClusterOptions`]).
pub struct Lots {
    /// LOTS protocol configuration.
    pub lots: LotsConfig,
    /// Backing-store factory, one store per node. Defaults to
    /// unbounded in-memory stores timed by the machine's disk model.
    pub store_factory: Box<dyn Fn(NodeId) -> Arc<dyn BackingStore> + Send + Sync>,
}

/// Everything needed to start a LOTS cluster run:
/// `ClusterOptions::new(n, lots_config, machine)`.
pub type ClusterOptions = Options<Lots>;

impl ClusterOptions {
    /// Replace the backing-store factory (e.g. file-backed spools).
    pub fn with_stores(
        mut self,
        f: impl Fn(NodeId) -> Arc<dyn BackingStore> + Send + Sync + 'static,
    ) -> ClusterOptions {
        self.proto.store_factory = Box::new(f);
        self
    }
}

/// Per-node outcome of a run.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// The node's rank.
    pub me: NodeId,
    /// Final virtual time (the node's execution time).
    pub time: SimInstant,
    /// The node's time/counter statistics.
    pub stats: NodeStats,
    /// The node's traffic counters.
    pub traffic: TrafficStats,
    /// Logical bytes of shared objects registered.
    pub object_bytes: u64,
    /// Bytes left in the swap store at exit — actual store-resident
    /// (post-compression) bytes, what counts against free disk space.
    pub swapped_bytes: u64,
    /// Logical bytes of objects swapped out at exit.
    pub swapped_logical_bytes: u64,
    /// Logical bytes of objects still mapped in the DMM area at exit.
    pub resident_bytes: u64,
    /// DMM fragmentation snapshot at exit (free bytes, largest hole,
    /// external-fragmentation ratio).
    pub frag: crate::alloc::FragStats,
    /// Object-table slots at exit (control-space footprint; bounded
    /// under churn while cumulative allocations grow).
    pub object_slots: usize,
    /// Scheduler dispatches of this node's app + comm tasks. A pure
    /// function of the simulated schedule: identical across
    /// `Deterministic` and `Parallel` runs.
    pub sched_turns: u64,
    /// Wakes delivered to this node's app + comm tasks; deterministic
    /// like `sched_turns`.
    pub sched_wakes: u64,
}

/// Cluster-wide outcome of a LOTS run.
pub type ClusterReport = Report<NodeReport>;

impl ClusterReport {
    /// Home-load imbalance: max-over-nodes of home bytes served,
    /// divided by the per-node mean, in permille (integer math, so
    /// deterministic). `1000` is a perfectly balanced cluster; a
    /// single-home hotspot on an `n`-node cluster reads `n × 1000`;
    /// `0` means no remote object traffic at all.
    pub fn home_load_ratio_permille(&self) -> u64 {
        let loads: Vec<u64> = self
            .nodes
            .iter()
            .map(|r| r.stats.home_bytes_served())
            .collect();
        let total: u64 = loads.iter().sum();
        if total == 0 {
            return 0;
        }
        let max = loads.iter().copied().max().unwrap_or(0);
        (max as u128 * loads.len() as u128 * 1000 / total as u128) as u64
    }
}

/// Run an SPMD application on a simulated LOTS cluster.
///
/// `app` is invoked once per node with that node's [`Dsm`]; the call
/// returns each node's result plus the cluster report (virtual
/// execution time, per-node stats and traffic). Same options ⇒
/// byte-identical report.
pub fn run_cluster<R, F>(opts: ClusterOptions, app: F) -> (Vec<R>, ClusterReport)
where
    R: Send + 'static,
    F: Fn(&Dsm) -> R + Send + Sync + 'static,
{
    harness::run(opts, app)
}

/// Cold-start restore of a LOTS cluster from its journals: see
/// [`harness::restore`]. `opts` must carry the same cluster shape and
/// [`LotsConfig::persist`] policy as the original run.
pub fn restore_cluster<R, F>(
    restored: Arc<RestoredCluster>,
    opts: ClusterOptions,
    app: F,
) -> (Vec<R>, ClusterReport)
where
    R: Send + 'static,
    F: Fn(&Dsm) -> R + Send + Sync + 'static,
{
    harness::restore(restored, opts, app)
}

impl Protocol for Lots {
    type Arg = LotsConfig;
    type Msg = Msg;
    type Node = NodeState;
    type Services = (Arc<LockService>, Arc<BarrierService>);
    type Dsm = Dsm;
    type NodeReport = NodeReport;

    const NAME: &'static str = "lots";

    fn configure(lots: LotsConfig, machine: &MachineConfig) -> Lots {
        let disk = machine.disk;
        Lots {
            lots,
            store_factory: Box::new(move |_| Arc::new(MemStore::new(disk))),
        }
    }

    fn persist(&mut self) -> &mut Option<PersistConfig> {
        &mut self.lots.persist
    }

    fn services(opts: &ClusterOptions) -> Self::Services {
        let cfg = &opts.proto.lots;
        let locks = Arc::new(LockService::new(opts.n, cfg.diff_mode, cfg.lock_protocol));
        let barrier = Arc::new(BarrierService::new(
            opts.n,
            cfg.home_migration,
            Arc::clone(&locks),
        ));
        (locks, barrier)
    }

    fn poison((locks, barrier): &Self::Services) {
        barrier.poison();
        locks.poison();
    }

    fn node(
        opts: &ClusterOptions,
        me: NodeId,
        cpu: CpuModel,
        clock: SimClock,
        stats: NodeStats,
    ) -> NodeState {
        let store = (opts.proto.store_factory)(me);
        NodeState::new(
            me,
            opts.n,
            opts.proto.lots.clone(),
            cpu,
            store,
            clock,
            stats,
        )
    }

    fn disk(node: &mut NodeState) -> Option<&mut DiskQueue> {
        Some(&mut node.diskq)
    }

    fn handle(
        node: &Mutex<NodeState>,
        net: &NetSender<Msg>,
        env: Envelope<Msg>,
    ) -> Option<Envelope<Msg>> {
        let src = env.src;
        match env.msg {
            Msg::ObjReq { obj } => {
                let (bytes, version, service_done, striped_child) = {
                    let mut st = node.lock();
                    // The handler runs when the request arrives or
                    // when the node's own work frees the CPU, whichever
                    // is later; it steals node time.
                    st.stats.charge(TimeCategory::Handler, st.cpu.handler_entry);
                    st.clock.advance(st.cpu.handler_entry);
                    let t0 = st.clock.now().max(env.arrival);
                    let striped_child = st.ctl(obj).is_stripe_child();
                    let (b, v) = st
                        .serve_object(obj)
                        .unwrap_or_else(|e| panic!("serving {obj}: {e}"));
                    st.stats.count_home_request(b.len() as u64);
                    // Disk time charged inside serve_object has already
                    // advanced the clock; the reply can leave at the
                    // later of arrival and now.
                    let done = st.clock.now().max(t0);
                    (b, v, done, striped_child)
                };
                let tx = net.send(
                    src,
                    Msg::ObjReply { obj, version },
                    bytes.into(),
                    service_done,
                );
                if striped_child {
                    // Segment serving occupies the home's NIC until the
                    // reply is on the wire: concurrent readers of *one*
                    // home queue behind each other (the single-home
                    // bottleneck), while readers of a striped object
                    // fan out over distinct homes and overlap. Plain
                    // objects keep the seed's accounting bit-for-bit.
                    node.lock().clock.advance_to(tx.sender_free);
                }
                None
            }
            Msg::DiffSend { obj, ts } => {
                let service_done = {
                    let mut st = node.lock();
                    st.stats.charge(TimeCategory::Handler, st.cpu.handler_entry);
                    st.clock.advance(st.cpu.handler_entry);
                    let diff = WordDiff::decode(&env.payload);
                    st.apply_remote_diff(obj, &diff, ts)
                        .unwrap_or_else(|e| panic!("applying diff for {obj}: {e}"));
                    st.clock.now().max(env.arrival)
                };
                net.send(src, Msg::DiffAck { obj }, Default::default(), service_done);
                None
            }
            Msg::ObjReply { .. } | Msg::DiffAck { .. } => Some(env),
        }
    }

    fn dsm(parts: NodeParts<Lots>) -> Dsm {
        let (locks, barrier) = parts.services;
        Dsm {
            me: parts.ctx.me,
            ctx: parts.ctx,
            node: parts.node,
            n: parts.net.cluster_size(),
            net: parts.net,
            replies: parts.replies,
            locks,
            barrier,
            seed: parts.seed,
            fault_barrier: parts.fault_barrier,
            crash_fault: parts.crash_fault,
            barriers_entered: std::cell::Cell::new(0),
            live_views: std::cell::Cell::new(0),
            view_spans: std::cell::RefCell::new(Vec::new()),
            view_token: std::cell::Cell::new(0),
            analyze: parts.analyze,
            journal: parts.journal,
        }
    }

    fn node_report(s: NodeSummary, node: &NodeState) -> NodeReport {
        NodeReport {
            me: s.me,
            time: s.time,
            stats: s.stats,
            traffic: s.traffic,
            object_bytes: node.total_object_bytes(),
            swapped_bytes: node.swapped_bytes(),
            swapped_logical_bytes: node.swapped_logical_bytes(),
            resident_bytes: node.resident_logical_bytes(),
            frag: node.frag_stats(),
            object_slots: node.object_count(),
            sched_turns: s.sched_turns,
            sched_wakes: s.sched_wakes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{DsmApi, DsmSlice};
    use lots_persist::PersistStore;
    use lots_sim::machine::p4_fedora;
    use lots_sim::{FaultPlan, PanicFault, SchedulerMode, Topology};

    fn opts(n: usize, dmm: usize) -> ClusterOptions {
        ClusterOptions::new(n, LotsConfig::small(dmm), p4_fedora())
    }

    #[test]
    fn single_node_roundtrip() {
        let (results, report) = run_cluster(opts(1, 64 * 1024), |dsm| {
            let a = dsm.alloc::<i32>(100);
            a.write(5, 42);
            a.read(5)
        });
        assert_eq!(results, vec![42]);
        assert!(report.exec_time.nanos() > 0);
    }

    #[test]
    fn two_nodes_see_writes_after_barrier() {
        let (results, _) = run_cluster(opts(2, 64 * 1024), |dsm| {
            let a = dsm.alloc::<i32>(16);
            if dsm.me() == 0 {
                a.write(3, 77);
            }
            dsm.barrier();
            a.read(3)
        });
        assert_eq!(results, vec![77, 77]);
    }

    #[test]
    fn migrated_home_serves_later_readers() {
        let (results, report) = run_cluster(opts(4, 64 * 1024), |dsm| {
            let a = dsm.alloc::<i32>(64);
            if dsm.me() == 2 {
                a.fill(9);
            }
            dsm.barrier();
            // Home migrated to node 2 (single writer); all others fetch.
            let v = a.read(63);
            dsm.barrier();
            v
        });
        assert_eq!(results, vec![9, 9, 9, 9]);
        // Three fetches of a 256-byte object happened.
        let bytes: u64 = report.total(|n| n.traffic.bytes_sent());
        assert!(bytes > 3 * 256, "traffic {bytes}");
    }

    #[test]
    fn multi_writer_object_merges_at_home() {
        let (results, _) = run_cluster(opts(4, 64 * 1024), |dsm| {
            let a = dsm.alloc::<i32>(4);
            a.write(dsm.me(), dsm.me() as i32 + 1);
            dsm.barrier();
            (0..4).map(|i| a.read(i)).sum::<i32>()
        });
        assert_eq!(results, vec![10, 10, 10, 10]);
    }

    #[test]
    fn lock_updates_propagate_without_barrier() {
        let (results, _) = run_cluster(opts(2, 64 * 1024), |dsm| {
            let a = dsm.alloc::<i32>(8);
            for _ in 0..10 {
                dsm.lock(1);
                let v = a.read(0);
                a.write(0, v + 1);
                dsm.unlock(1);
            }
            dsm.barrier();
            a.read(0)
        });
        // All 20 increments survive iff every grant carried the prior
        // critical sections' updates (no lost updates).
        assert_eq!(results, vec![20, 20]);
    }

    #[test]
    #[should_panic(expected = "node 2 exploded")]
    fn peer_panic_fails_loudly_instead_of_hanging() {
        // Nodes 0, 1 and 3 block at the barrier; node 2 panics before
        // reaching it. Without poisoning this run would hang forever —
        // with it, the original panic propagates out of run_cluster.
        let _ = run_cluster(opts(4, 64 * 1024), |dsm| {
            let a = dsm.alloc::<i32>(16);
            if dsm.me() == 2 {
                panic!("node 2 exploded");
            }
            dsm.barrier();
            a.read(0)
        });
    }

    #[test]
    fn clock_and_traffic_recorded() {
        let (_, report) = run_cluster(opts(2, 64 * 1024), |dsm| {
            let a = dsm.alloc::<i64>(1024);
            if dsm.me() == 1 {
                a.fill(7);
            }
            dsm.barrier();
            a.read(1023)
        });
        for node in &report.nodes {
            assert!(node.time.nanos() > 0);
            assert!(node.stats.access_checks() > 0);
        }
        assert!(report.exec_time >= report.nodes[0].time);
    }

    fn fingerprint(report: &ClusterReport) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for nd in &report.nodes {
            let _ = write!(
                out,
                "{}:{}:{}:{}:{}:{};",
                nd.me,
                nd.time.nanos(),
                nd.stats.access_checks(),
                nd.traffic.bytes_sent(),
                nd.traffic.msgs_sent(),
                nd.stats.time_in(TimeCategory::SyncWait).nanos(),
            );
        }
        out
    }

    fn contended_kernel(dsm: &Dsm) -> i64 {
        let a = dsm.alloc::<i64>(256);
        let per = 256 / dsm.n();
        let base = dsm.me() * per;
        for i in 0..per {
            a.write(base + i, (base + i) as i64);
        }
        dsm.barrier();
        let mut sum = 0;
        for _ in 0..4 {
            dsm.lock(1);
            let v = a.read(0);
            a.write(0, v + 1);
            dsm.unlock(1);
        }
        dsm.barrier();
        for i in 0..256 {
            sum += a.read(i);
        }
        sum
    }

    #[test]
    fn deterministic_mode_reproduces_reports_exactly() {
        let run = || {
            let (results, report) = run_cluster(opts(4, 256 * 1024), contended_kernel);
            (results, fingerprint(&report))
        };
        let (r1, f1) = run();
        let (r2, f2) = run();
        assert_eq!(r1, r2);
        assert_eq!(f1, f2, "same seed must give byte-identical reports");
    }

    #[test]
    #[should_panic(expected = "fault injection")]
    fn fault_plan_panics_the_chosen_node() {
        let o = opts(2, 64 * 1024).with_faults(FaultPlan {
            panic_node: Some(PanicFault {
                node: 1,
                at_barrier: 1,
            }),
            ..FaultPlan::none()
        });
        let _ = run_cluster(o, |dsm| {
            let a = dsm.alloc::<i32>(4);
            a.write(dsm.me(), 1);
            dsm.barrier();
            a.read(0)
        });
    }

    #[test]
    fn fault_delays_and_slowdowns_change_times_not_values() {
        let base = run_cluster(opts(2, 64 * 1024), contended_kernel);
        let o = opts(2, 64 * 1024).with_faults(FaultPlan {
            seed: 99,
            max_msg_delay: lots_sim::SimDuration::from_millis(2),
            cpu_slowdown: vec![(1, 2.0)],
            ..FaultPlan::none()
        });
        let perturbed = run_cluster(o, contended_kernel);
        assert_eq!(base.0, perturbed.0, "faulted run must compute same values");
        assert!(
            perturbed.1.exec_time > base.1.exec_time,
            "delays + a straggler must cost virtual time ({} vs {})",
            perturbed.1.exec_time,
            base.1.exec_time
        );
    }

    #[test]
    fn lossy_network_with_retransmission_preserves_values() {
        let base = run_cluster(opts(3, 256 * 1024), contended_kernel);
        let o = opts(3, 256 * 1024).with_faults(FaultPlan {
            seed: 7,
            loss_permille: 60,
            dup_permille: 40,
            reorder_permille: 80,
            ..FaultPlan::none()
        });
        let lossy = run_cluster(o, contended_kernel);
        assert_eq!(base.0, lossy.0, "lossy run must compute the same values");
        let retransmits = lossy.1.total(|n| n.traffic.msgs_retransmitted());
        assert!(retransmits > 0, "6% loss must force some retransmissions");
        assert_eq!(
            lossy.1.total(|n| n.traffic.msgs_dropped()),
            0,
            "the reliable layer must recover every loss"
        );
        assert!(
            lossy.1.exec_time > base.1.exec_time,
            "retransmission timeouts must cost virtual time"
        );
    }

    #[test]
    fn scheduled_partition_heals_and_values_survive() {
        let base = run_cluster(opts(4, 256 * 1024), contended_kernel);
        let o = opts(4, 256 * 1024).with_faults(FaultPlan {
            seed: 11,
            partitions: vec![lots_sim::Partition {
                start: SimInstant(50_000),
                end: SimInstant(3_000_000),
                islanders: vec![3],
            }],
            ..FaultPlan::none()
        });
        let cut = run_cluster(o, contended_kernel);
        assert_eq!(base.0, cut.0, "partitioned run must compute same values");
        assert_eq!(cut.1.total(|n| n.traffic.msgs_dropped()), 0);
    }

    #[test]
    fn crash_rejoin_preserves_values_and_costs_time() {
        let kernel = |dsm: &Dsm| {
            let a = dsm.alloc::<i64>(512);
            let per = 512 / dsm.n();
            let base = dsm.me() * per;
            for i in 0..per {
                a.write(base + i, (base + i) as i64 * 3);
            }
            dsm.barrier();
            let mut sum = 0i64;
            for i in 0..512 {
                sum += a.read(i);
            }
            dsm.barrier();
            sum
        };
        let base = run_cluster(opts(4, 256 * 1024), kernel);
        let o = opts(4, 256 * 1024).with_faults(FaultPlan {
            crash_node: Some(lots_sim::CrashFault {
                node: 1,
                at_barrier: 1,
                reboot: lots_sim::SimDuration::from_millis(50),
            }),
            ..FaultPlan::none()
        });
        let crashed = run_cluster(o, kernel);
        assert_eq!(base.0, crashed.0, "rejoin must preserve every value");
        assert_eq!(crashed.1.total(|n| n.stats.rejoin_rounds()), 1);
        assert!(crashed.1.total(|n| n.stats.rejoin_bytes()) > 0);
        assert!(
            crashed.1.exec_time > base.1.exec_time,
            "the reboot outage must cost virtual time"
        );
    }

    #[test]
    fn mixed_latency_topology_reproduces_exactly() {
        let slow = lots_sim::LinkParams {
            latency: lots_sim::SimDuration::from_micros(900),
            bandwidth_bps: 10_000_000,
        };
        let topo = Topology::uniform().with_symmetric_link(0, 3, slow);
        let run = |mode| {
            let o = opts(4, 256 * 1024)
                .with_topology(topo.clone())
                .with_scheduler(mode);
            let (results, report) = run_cluster(o, contended_kernel);
            (results, fingerprint(&report))
        };
        let (rd, fd) = run(SchedulerMode::Deterministic);
        let (rp, fp) = run(SchedulerMode::Parallel { workers: 4 });
        assert_eq!(rd, rp);
        assert_eq!(fd, fp, "parallel engine must match the sequential oracle");
    }

    #[test]
    fn report_carries_seed() {
        let (_, report) = run_cluster(opts(1, 64 * 1024).with_seed(777), |dsm| dsm.seed());
        assert_eq!(report.seed, 777);
    }

    #[test]
    fn persistence_journals_checkpoints_and_replays_identically() {
        let with_persist = |mut o: ClusterOptions| {
            o.proto.lots = o
                .proto
                .lots
                .clone()
                .with_persist(lots_persist::PersistConfig::every(1));
            o
        };
        let store = PersistStore::new(3);
        let o = with_persist(opts(3, 256 * 1024)).with_persist_store(store.clone());
        let (r1, rep1) = run_cluster(o, contended_kernel);
        assert!(rep1.total(|n| n.stats.log_records()) > 0);
        assert!(rep1.total(|n| n.stats.log_bytes_appended()) > 0);
        assert!(rep1.total(|n| n.stats.checkpoint_bytes()) > 0);
        let restored = store.restore().expect("journals restore");
        assert_eq!(restored.checkpoint_seq, 2, "both barriers checkpointed");
        // Honest replay against the restored verify plan: every sealed
        // digest and virtual clock must be reproduced exactly.
        let (r2, rep2) = restore_cluster(
            Arc::new(restored),
            with_persist(opts(3, 256 * 1024)),
            contended_kernel,
        );
        assert_eq!(r1, r2, "replay must compute the same values");
        assert_eq!(
            fingerprint(&rep1),
            fingerprint(&rep2),
            "replay must be byte-identical in time and traffic"
        );
    }

    #[test]
    fn torn_journal_tail_replays_beyond_the_checkpoint() {
        let with_persist = |mut o: ClusterOptions| {
            o.proto.lots = o
                .proto
                .lots
                .clone()
                .with_persist(lots_persist::PersistConfig::every(1));
            o
        };
        let store = PersistStore::new(2);
        let o = with_persist(opts(2, 256 * 1024)).with_persist_store(store.clone());
        let (r1, _) = run_cluster(o, contended_kernel);
        // Tear node 1's log mid-way: restore falls back to the newest
        // manifest both nodes completed, and the replay re-executes
        // (and re-verifies) the barriers beyond it.
        let full = store.log_bytes(1) as usize;
        store.truncate_tail(1, full - full / 3);
        let restored = store.restore().expect("torn log still restores");
        assert!(restored.checkpoint_seq >= 1);
        let (r2, rep2) = restore_cluster(
            Arc::new(restored.clone()),
            with_persist(opts(2, 256 * 1024)),
            contended_kernel,
        );
        assert_eq!(r1, r2);
        if restored.checkpoint_seq < 2 {
            assert!(
                rep2.total(|n| n.stats.restore_replay_barriers()) > 0,
                "barriers beyond the torn checkpoint count as replayed"
            );
        }
    }

    #[test]
    fn rejoin_reads_own_journal_when_persistence_is_on() {
        // One object per node, each written solely by its node, so the
        // migrating-home protocol makes every node (the crash victim
        // included) home of a master after barrier 1.
        let kernel = |dsm: &Dsm| {
            let objs: Vec<_> = (0..dsm.n()).map(|_| dsm.alloc::<i64>(256)).collect();
            for i in 0..256 {
                objs[dsm.me()].write(i, (dsm.me() * 256 + i) as i64 * 3);
            }
            dsm.barrier();
            let mut sum = 0i64;
            for o in &objs {
                for i in 0..256 {
                    sum += o.read(i);
                }
            }
            dsm.barrier();
            sum
        };
        let faults = || FaultPlan {
            crash_node: Some(lots_sim::CrashFault {
                node: 1,
                at_barrier: 1,
                reboot: lots_sim::SimDuration::from_millis(50),
            }),
            ..FaultPlan::none()
        };
        let base = run_cluster(opts(4, 256 * 1024).with_faults(faults()), kernel);
        let mut o = opts(4, 256 * 1024).with_faults(faults());
        o.proto.lots = o
            .proto
            .lots
            .with_persist(lots_persist::PersistConfig::every(1));
        let journaled = run_cluster(o, kernel);
        assert_eq!(base.0, journaled.0, "values survive either rejoin path");
        // Without the journal every rebuilt byte crosses the network.
        assert_eq!(base.1.total(|n| n.stats.rejoin_log_bytes()), 0);
        assert!(base.1.total(|n| n.stats.rejoin_peer_bytes()) > 0);
        // With it, the masters come back from the node's own log and
        // peers only send the directory + post-checkpoint deltas.
        assert!(journaled.1.total(|n| n.stats.rejoin_log_bytes()) > 0);
        assert!(
            journaled.1.total(|n| n.stats.rejoin_peer_bytes())
                < base.1.total(|n| n.stats.rejoin_peer_bytes()),
            "journal rejoin must shift master rebuild off the network"
        );
    }
}
