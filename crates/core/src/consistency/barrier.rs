//! Barriers with the migrating-home write-invalidate protocol (§3.4).
//!
//! A barrier runs in two rendezvous:
//!
//! * **Enter/plan** — every node reports its write notices (objects it
//!   wrote this interval, with its consistent view of their homes). The
//!   last arriver builds the plan: an object with a *single* writer
//!   migrates its home to that writer with **no data transfer** (the
//!   migration rides the barrier exit message); an object with multiple
//!   writers keeps its home and every non-home writer must send its
//!   diff to the home.
//! * **Drain/exit** — after the diff sends are acknowledged, nodes
//!   rendezvous again; the last arriver resets the lock-service epoch
//!   (all lock updates are now reflected at homes) and stamps the exit
//!   time. On exit every node applies migrations and invalidates its
//!   copies of written objects it is not home of.
//!
//! Virtual time: the plan time is the max of the modeled enter-message
//! arrivals plus manager processing; the exit time likewise over the
//! drain notifications — so one slow node stalls everyone, as on a real
//! cluster. Control traffic is charged to each participant's counters
//! (manager-side fan-out is folded into the per-node accounting).

use std::collections::BTreeSet;
use std::sync::Arc;

use lots_net::NodeId;
use lots_sim::{BlockReason, SchedHandle, SimDuration, SimInstant, TimeCategory};
use parking_lot::{Mutex, MutexGuard};

use crate::object::{NamedAllocReq, ObjectId};
use crate::protocol::messages::ctl;

use super::locks::LockService;
use super::SyncCtx;

/// Per-entry manager processing cost when building/applying plans.
const PLAN_ENTRY_COST: SimDuration = SimDuration(250);

/// The plan the manager (last arriver) computes for one barrier.
#[derive(Debug, Default)]
pub struct BarrierPlan {
    /// Barrier sequence number (1-based).
    pub seq: u64,
    /// Diff-propagation instructions: (writer, object, home).
    pub send_diffs: Vec<(NodeId, ObjectId, NodeId)>,
    /// Every object written this interval with its (possibly migrated)
    /// new home.
    pub written: Vec<(ObjectId, NodeId)>,
    /// Objects freed this interval (union over all nodes, sorted):
    /// every node reclaims them on exit. A freed object is dropped
    /// from `written`/`send_diffs` — its updates die with it.
    pub freed: Vec<ObjectId>,
    /// Named allocations staged this interval, in deterministic commit
    /// order (by staging node, then staging order): every node commits
    /// them on exit, which is what keeps object ids and the replicated
    /// name directory cluster-consistent.
    pub named: Vec<NamedAllocReq>,
    /// Virtual time the plan was ready at the manager.
    pub plan_time: SimInstant,
}

impl BarrierPlan {
    /// The diff sends node `me` is responsible for.
    pub fn my_sends<'a>(&'a self, me: NodeId) -> impl Iterator<Item = (ObjectId, NodeId)> + 'a {
        self.send_diffs
            .iter()
            .filter(move |&&(w, _, _)| w == me)
            .map(|&(_, obj, home)| (obj, home))
    }
}

/// One write notice: object, its diff's wire size, the reporting
/// node's (cluster-consistent) view of the object's home, and whether
/// a first-touch home assignment is still pending.
pub type Notice = (ObjectId, usize, NodeId, bool);

/// The *virtual* last arriver of a rendezvous: lex-max `(arrive, node)`,
/// carrying that node's per-entry handler cost. Manager-side processing
/// is charged at this node's CPU speed — a pure function of virtual
/// time, unlike "whichever thread got here last", which diverges under
/// per-node CPU-slowdown faults once rendezvous arrivals race.
#[derive(Clone, Copy)]
struct LastArriver {
    arrive: SimInstant,
    node: NodeId,
    handler_entry: SimDuration,
}

impl LastArriver {
    const ZERO: LastArriver = LastArriver {
        arrive: SimInstant::ZERO,
        node: 0,
        handler_entry: SimDuration::ZERO,
    };

    fn merge(&mut self, arrive: SimInstant, ctx: &SyncCtx) {
        if (arrive, ctx.me) >= (self.arrive, self.node) {
            *self = LastArriver {
                arrive,
                node: ctx.me,
                handler_entry: ctx.cpu.handler_entry,
            };
        }
    }
}

struct BState {
    seq: u64,
    // Enter/plan rendezvous.
    gen_a: u64,
    count_a: usize,
    enter_max: SimInstant,
    enter_last: LastArriver,
    notices: Vec<(ObjectId, NodeId, usize, NodeId, bool)>, // (obj, writer, diff size, home, pending)
    /// Freed objects reported this round (union; sorted by id).
    frees: BTreeSet<u32>,
    /// Named allocations staged this round, keyed for deterministic
    /// commit order: (staging node, staging index, request).
    named: Vec<(NodeId, usize, NamedAllocReq)>,
    plan: Option<Arc<BarrierPlan>>,
    // Drain/exit rendezvous.
    gen_b: u64,
    count_b: usize,
    drain_max: SimInstant,
    drain_last: LastArriver,
    exit_time: SimInstant,
    // Event-only run-barrier rendezvous (§3.6).
    gen_r: u64,
    count_r: usize,
    run_max: SimInstant,
    run_last: LastArriver,
    run_exit: SimInstant,
    /// Set when a node's app thread panicked: every current and future
    /// waiter must unblock and propagate instead of waiting for a
    /// rendezvous that can never complete.
    poisoned: bool,
    /// Tasks parked in any of the three rendezvous
    /// (they re-register on every spurious wake, so one shared list
    /// suffices). Drained and woken by whoever completes a rendezvous
    /// or poisons the service.
    sched_waiters: Vec<SchedHandle>,
}

/// Cluster-wide barrier service.
pub struct BarrierService {
    n: usize,
    migration: bool,
    locks: Arc<LockService>,
    state: Mutex<BState>,
}

impl BarrierService {
    /// A barrier service for `n` nodes; `migration` enables the
    /// migrating-home policy (§3.4).
    pub fn new(n: usize, migration: bool, locks: Arc<LockService>) -> BarrierService {
        BarrierService {
            n,
            migration,
            locks,
            state: Mutex::new(BState {
                seq: 1,
                gen_a: 0,
                count_a: 0,
                enter_max: SimInstant::ZERO,
                enter_last: LastArriver::ZERO,
                notices: Vec::new(),
                frees: BTreeSet::new(),
                named: Vec::new(),
                plan: None,
                gen_b: 0,
                count_b: 0,
                drain_max: SimInstant::ZERO,
                drain_last: LastArriver::ZERO,
                exit_time: SimInstant::ZERO,
                gen_r: 0,
                count_r: 0,
                run_max: SimInstant::ZERO,
                run_last: LastArriver::ZERO,
                run_exit: SimInstant::ZERO,
                poisoned: false,
                sched_waiters: Vec::new(),
            }),
        }
    }

    /// Number of nodes this barrier synchronizes.
    pub fn cluster_size(&self) -> usize {
        self.n
    }

    /// Mark the cluster as dead after an app-thread panic and wake all
    /// waiters so they fail loudly instead of hanging at a rendezvous
    /// the panicked node will never reach.
    pub fn poison(&self) {
        let mut st = self.state.lock();
        st.poisoned = true;
        super::wake_all(&mut st.sched_waiters);
    }

    fn check_poison(st: &BState) {
        if st.poisoned {
            panic!("barrier poisoned: a peer app thread panicked (see its panic above)");
        }
    }

    /// [`super::sched_wait_step`] against this service's state.
    fn sched_wait<'a>(
        &'a self,
        st: MutexGuard<'a, BState>,
        h: &SchedHandle,
    ) -> MutexGuard<'a, BState> {
        super::sched_wait_step(
            &self.state,
            st,
            |s| &mut s.sched_waiters,
            h,
            BlockReason::Barrier,
        )
    }

    /// Rendezvous 1: submit write notices plus this interval's staged
    /// frees and named allocations, receive the plan.
    pub fn enter(
        &self,
        ctx: &SyncCtx,
        notices: Vec<Notice>,
        frees: Vec<ObjectId>,
        named: Vec<NamedAllocReq>,
    ) -> Arc<BarrierPlan> {
        let mut st = self.state.lock();
        Self::check_poison(&st);
        let my_gen = st.gen_a;
        let wait_from = ctx.clock.now();
        let named_bytes: usize = named.iter().map(|r| ctl::WRITE_NOTICE + r.name.len()).sum();
        let enter_bytes = ctl::BARRIER_ENTER
            + notices.len() * ctl::WRITE_NOTICE
            + frees.len() * ctl::PLAN_ENTRY
            + named_bytes;
        ctx.traffic
            .record_send(enter_bytes, ctx.net.fragments(enter_bytes));
        let arrive = ctx.clock.now() + ctx.net.one_way(enter_bytes);
        st.enter_max = st.enter_max.max(arrive);
        st.enter_last.merge(arrive, ctx);
        for (obj, size, home, pending) in notices {
            st.notices.push((obj, ctx.me, size, home, pending));
        }
        st.frees.extend(frees.into_iter().map(|o| o.0));
        for (idx, req) in named.into_iter().enumerate() {
            st.named.push((ctx.me, idx, req));
        }
        st.count_a += 1;
        if st.count_a == self.n {
            let plan = Arc::new(self.build_plan(&mut st));
            st.plan = Some(plan);
            st.count_a = 0;
            st.enter_max = SimInstant::ZERO;
            st.enter_last = LastArriver::ZERO;
            st.notices.clear();
            st.frees.clear();
            st.named.clear();
            st.gen_a += 1;
            super::wake_all(&mut st.sched_waiters);
        } else {
            while st.gen_a == my_gen {
                st = self.sched_wait(st, &ctx.sched);
                Self::check_poison(&st);
            }
        }
        let plan = Arc::clone(st.plan.as_ref().expect("plan built by last arriver"));
        drop(st);
        let plan_named_bytes: usize = plan
            .named
            .iter()
            .map(|r| ctl::WRITE_NOTICE + r.name.len())
            .sum();
        let plan_bytes = ctl::BARRIER_PLAN
            + (plan.written.len() + plan.freed.len()) * ctl::PLAN_ENTRY
            + plan_named_bytes;
        ctx.traffic.record_recv(plan_bytes);
        let now = ctx
            .clock
            .advance_to(plan.plan_time + ctx.net.one_way(plan_bytes));
        ctx.stats
            .charge(TimeCategory::SyncWait, now.saturating_sub(wait_from));
        plan
    }

    fn build_plan(&self, st: &mut BState) -> BarrierPlan {
        // Group notices by object. A freed object is dropped first: the
        // free wins over concurrent writes, so no diff is ever
        // scheduled (or computed, §3.4 benefit 1) for it.
        let mut by_obj: std::collections::BTreeMap<u32, (NodeId, bool, Vec<NodeId>)> =
            std::collections::BTreeMap::new();
        for &(obj, writer, _size, home, pending) in &st.notices {
            if st.frees.contains(&obj.0) {
                continue;
            }
            let entry = by_obj.entry(obj.0).or_insert((home, pending, Vec::new()));
            debug_assert_eq!(
                (entry.0, entry.1),
                (home, pending),
                "inconsistent home views for {obj}"
            );
            entry.2.push(writer);
        }
        let mut send_diffs = Vec::new();
        let mut written = Vec::new();
        for (obj, (home, pending, writers)) in by_obj {
            let obj = ObjectId(obj);
            // First-touch placement: the first write barrier assigns
            // the home — the single writer, or the lowest-ranked of
            // several (the provisional round-robin home never served,
            // since every copy was the valid zero-fill until now).
            let home = if pending {
                *writers.iter().min().expect("noticed objects have writers")
            } else {
                home
            };
            if writers.len() == 1 {
                let w = writers[0];
                if self.migration || pending {
                    // Single writer: migrate the home to it; the data
                    // is already there, zero transfer (§3.4 benefit 1).
                    written.push((obj, w));
                } else {
                    // Ablation: fixed home — the writer must push its
                    // diff home like any other.
                    if w != home {
                        send_diffs.push((w, obj, home));
                    }
                    written.push((obj, home));
                }
            } else {
                // Multiple writers: updates are gathered at the home
                // (§3.4 benefit 2: no scattering).
                for &w in &writers {
                    if w != home {
                        send_diffs.push((w, obj, home));
                    }
                }
                written.push((obj, home));
            }
        }
        let freed: Vec<ObjectId> = st.frees.iter().map(|&o| ObjectId(o)).collect();
        // Commit order: by staging node, then staging order — a pure
        // function of the interval's calls, independent of rendezvous
        // arrival order, so faulted runs replay identically.
        let mut named_keyed = std::mem::take(&mut st.named);
        named_keyed.sort_by_key(|k| (k.0, k.1));
        let named: Vec<NamedAllocReq> = named_keyed.into_iter().map(|(_, _, r)| r).collect();
        // Manager processing charged at the virtual last arriver's CPU
        // speed (not whichever thread physically completed the
        // rendezvous — that races under the parallel engine).
        let processing = SimDuration(st.enter_last.handler_entry.0 * self.n as u64)
            + SimDuration(PLAN_ENTRY_COST.0 * (written.len() + freed.len() + named.len()) as u64);
        BarrierPlan {
            seq: st.seq,
            send_diffs,
            written,
            freed,
            named,
            plan_time: st.enter_max + processing,
        }
    }

    /// Rendezvous 2: all diff sends acknowledged; wait for the cluster,
    /// reset the lock epoch, and return the exit time (already merged
    /// into the caller's clock).
    pub fn drain(&self, ctx: &SyncCtx) -> u64 {
        let mut st = self.state.lock();
        Self::check_poison(&st);
        let my_gen = st.gen_b;
        let wait_from = ctx.clock.now();
        ctx.traffic.record_send(ctl::BARRIER_DONE, 1);
        let arrive = ctx.clock.now() + ctx.net.one_way(ctl::BARRIER_DONE);
        st.drain_max = st.drain_max.max(arrive);
        st.drain_last.merge(arrive, ctx);
        st.count_b += 1;
        let seq = st.seq;
        if st.count_b == self.n {
            // Every node is blocked here: lock logs can be reset safely
            // (all lock-era updates are now reflected at the homes via
            // the writers' interval diffs).
            self.locks.reset_epoch(seq);
            st.exit_time =
                st.drain_max + SimDuration(st.drain_last.handler_entry.0 * self.n as u64);
            st.seq += 1;
            st.count_b = 0;
            st.drain_max = SimInstant::ZERO;
            st.drain_last = LastArriver::ZERO;
            st.gen_b += 1;
            super::wake_all(&mut st.sched_waiters);
        } else {
            while st.gen_b == my_gen {
                st = self.sched_wait(st, &ctx.sched);
                Self::check_poison(&st);
            }
        }
        let exit = st.exit_time;
        drop(st);
        ctx.traffic.record_recv(ctl::BARRIER_EXIT);
        let now = ctx
            .clock
            .advance_to(exit + ctx.net.one_way(ctl::BARRIER_EXIT));
        ctx.stats
            .charge(TimeCategory::SyncWait, now.saturating_sub(wait_from));
        seq
    }

    /// The event-only `run_barrier()` of §3.6: synchronizes execution
    /// without any memory consistency actions.
    pub fn run_barrier(&self, ctx: &SyncCtx) {
        let mut st = self.state.lock();
        Self::check_poison(&st);
        let my_gen = st.gen_r;
        let wait_from = ctx.clock.now();
        ctx.traffic.record_send(ctl::BARRIER_ENTER, 1);
        let arrive = ctx.clock.now() + ctx.net.one_way(ctl::BARRIER_ENTER);
        st.run_max = st.run_max.max(arrive);
        st.run_last.merge(arrive, ctx);
        st.count_r += 1;
        if st.count_r == self.n {
            st.run_exit = st.run_max + SimDuration(st.run_last.handler_entry.0 * self.n as u64);
            st.count_r = 0;
            st.run_max = SimInstant::ZERO;
            st.run_last = LastArriver::ZERO;
            st.gen_r += 1;
            super::wake_all(&mut st.sched_waiters);
        } else {
            while st.gen_r == my_gen {
                st = self.sched_wait(st, &ctx.sched);
                Self::check_poison(&st);
            }
        }
        let exit = st.run_exit;
        drop(st);
        ctx.traffic.record_recv(ctl::BARRIER_EXIT);
        let now = ctx
            .clock
            .advance_to(exit + ctx.net.one_way(ctl::BARRIER_EXIT));
        ctx.stats
            .charge(TimeCategory::SyncWait, now.saturating_sub(wait_from));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DiffMode, LockProtocol};
    use crate::consistency::run_participants;

    fn service(n: usize, migration: bool) -> Arc<BarrierService> {
        let locks = Arc::new(LockService::new(
            n,
            DiffMode::PerFieldOnDemand,
            LockProtocol::HomelessWriteUpdate,
        ));
        Arc::new(BarrierService::new(n, migration, locks))
    }

    /// Run one barrier round, one participant per node; returns each
    /// node's plan.
    fn round(
        svc: &Arc<BarrierService>,
        notices: Vec<Vec<Notice>>,
    ) -> Vec<(Arc<BarrierPlan>, SimInstant)> {
        round_lifecycle(
            svc,
            notices.into_iter().map(|n| (n, vec![], vec![])).collect(),
        )
    }

    /// Like [`round`], with per-node staged frees and named allocs.
    fn round_lifecycle(
        svc: &Arc<BarrierService>,
        inputs: Vec<(Vec<Notice>, Vec<ObjectId>, Vec<NamedAllocReq>)>,
    ) -> Vec<(Arc<BarrierPlan>, SimInstant)> {
        run_participants(inputs.len(), |c| {
            let (n, frees, named) = inputs[c.me].clone();
            let plan = svc.enter(&c, n, frees, named);
            svc.drain(&c);
            (plan, c.clock.now())
        })
    }

    #[test]
    fn single_writer_migrates_home_without_data() {
        let svc = service(3, true);
        let results = round(
            &svc,
            vec![
                vec![(ObjectId(7), 40, 0, false)], // node 0 wrote obj7 (home 0)... home=0
                vec![],
                vec![],
            ],
        );
        let plan = &results[0].0;
        assert!(plan.send_diffs.is_empty(), "no data transfer on migration");
        assert_eq!(plan.written, vec![(ObjectId(7), 0)]);
        // Writer elsewhere migrates home to the writer.
        let results = round(
            &svc,
            vec![vec![], vec![(ObjectId(7), 40, 0, false)], vec![]],
        );
        let plan = &results[0].0;
        assert!(plan.send_diffs.is_empty());
        assert_eq!(plan.written, vec![(ObjectId(7), 1)]);
    }

    #[test]
    fn fixed_home_mode_sends_diff_home() {
        let svc = service(2, false);
        let results = round(&svc, vec![vec![], vec![(ObjectId(3), 16, 0, false)]]);
        let plan = &results[0].0;
        assert_eq!(plan.send_diffs, vec![(1, ObjectId(3), 0)]);
        assert_eq!(plan.written, vec![(ObjectId(3), 0)]);
    }

    #[test]
    fn multi_writer_keeps_home_and_gathers_diffs() {
        let svc = service(3, true);
        let results = round(
            &svc,
            vec![
                vec![(ObjectId(5), 8, 1, false)],
                vec![(ObjectId(5), 8, 1, false)],
                vec![(ObjectId(5), 8, 1, false)],
            ],
        );
        let plan = &results[0].0;
        assert_eq!(plan.written, vec![(ObjectId(5), 1)]);
        // Writers 0 and 2 send to home 1; home itself does not.
        let mut senders: Vec<NodeId> = plan.send_diffs.iter().map(|&(w, _, _)| w).collect();
        senders.sort_unstable();
        assert_eq!(senders, vec![0, 2]);
        assert!(plan.my_sends(1).next().is_none());
        assert_eq!(plan.my_sends(0).collect::<Vec<_>>(), vec![(ObjectId(5), 1)]);
    }

    #[test]
    fn freed_objects_drop_out_of_the_plan_and_union() {
        let svc = service(3, true);
        // Node 0 and node 1 both write obj 4; node 2 frees it (and obj
        // 9, which nobody wrote). Node 1 also frees obj 4 — the union
        // dedups.
        let results = round_lifecycle(
            &svc,
            vec![
                (vec![(ObjectId(4), 8, 1, false)], vec![], vec![]),
                (vec![(ObjectId(4), 8, 1, false)], vec![ObjectId(4)], vec![]),
                (vec![], vec![ObjectId(4), ObjectId(9)], vec![]),
            ],
        );
        let plan = &results[0].0;
        assert!(plan.written.is_empty(), "free wins over concurrent writes");
        assert!(plan.send_diffs.is_empty(), "no diffs for dead objects");
        assert_eq!(plan.freed, vec![ObjectId(4), ObjectId(9)]);
    }

    #[test]
    fn named_commits_order_by_node_then_stage_order() {
        let svc = service(2, true);
        let req = |name: &str| NamedAllocReq {
            name: name.into(),
            bytes: 64,
            elem_size: 4,
            len: 16,
            placement: crate::config::Placement::RoundRobin,
            placement_explicit: false,
        };
        let results = round_lifecycle(
            &svc,
            vec![
                (vec![], vec![], vec![req("n0-a"), req("n0-b")]),
                (vec![], vec![], vec![req("n1-a")]),
            ],
        );
        for (plan, _) in &results {
            let names: Vec<&str> = plan.named.iter().map(|r| r.name.as_str()).collect();
            assert_eq!(names, vec!["n0-a", "n0-b", "n1-a"]);
        }
    }

    #[test]
    fn first_touch_pending_home_goes_to_lowest_writer() {
        // Multi-writer pending object: home = lowest-ranked writer.
        let svc = service(3, true);
        let results = round(
            &svc,
            vec![
                vec![],
                vec![(ObjectId(2), 8, 2, true)],
                vec![(ObjectId(2), 8, 2, true)],
            ],
        );
        let plan = &results[0].0;
        assert_eq!(plan.written, vec![(ObjectId(2), 1)]);
        assert_eq!(plan.send_diffs, vec![(2, ObjectId(2), 1)]);
        // Single pending writer becomes home even without migration.
        let svc = service(3, false);
        let results = round(&svc, vec![vec![], vec![], vec![(ObjectId(7), 8, 1, true)]]);
        let plan = &results[0].0;
        assert_eq!(plan.written, vec![(ObjectId(7), 2)]);
        assert!(plan.send_diffs.is_empty());
    }

    #[test]
    fn exit_time_dominated_by_slowest_node() {
        let svc = service(2, true);
        let times: Vec<SimInstant> = run_participants(2, |c| {
            if c.me == 1 {
                c.clock.advance(SimDuration::from_millis(30)); // slow worker
            }
            svc.enter(&c, vec![], vec![], vec![]);
            svc.drain(&c);
            c.clock.now()
        });
        for t in &times {
            assert!(t.nanos() >= 30_000_000, "exit before slowest entered: {t}");
        }
        // Exits are identical up to the (identical) exit message cost.
        assert_eq!(times[0], times[1]);
    }

    #[test]
    fn barrier_reusable_across_rounds_with_increasing_seq() {
        let svc = service(2, true);
        for expected_seq in 1..=3u64 {
            let seqs = run_participants(2, |c| {
                let plan = svc.enter(&c, vec![], vec![], vec![]);
                let seq = svc.drain(&c);
                (plan.seq, seq)
            });
            for (pseq, dseq) in seqs {
                assert_eq!(pseq, expected_seq);
                assert_eq!(dseq, expected_seq);
            }
        }
    }

    #[test]
    fn run_barrier_synchronizes_clocks_only() {
        let svc = service(3, true);
        let times = run_participants(3, |c| {
            c.clock.advance(SimDuration::from_micros(c.me as u64 * 500));
            svc.run_barrier(&c);
            c.clock.now()
        });
        assert_eq!(times[0], times[1]);
        assert_eq!(times[1], times[2]);
        assert!(times[0].nanos() >= 1_000_000);
    }
}
