//! Distributed locks with the homeless write-update protocol (§3.4)
//! and the per-field-timestamp diff engine that eliminates diff
//! accumulation (§3.5, Figure 7).
//!
//! Each lock has a manager node (`lock % n`, as in JIAJIA). The manager
//! keeps, per lock, either:
//!
//! * **Per-field mode** (LOTS): for every object updated under the
//!   lock, a map `word → (timestamp, value)`. A grant sends exactly the
//!   words newer than the requester's last-seen timestamp — the
//!   on-demand diff of Figure 7b; nothing is ever re-sent.
//! * **Accumulated mode** (TreadMarks-style, the Figure 7a baseline):
//!   the list of whole release diffs by timestamp. A grant re-sends
//!   every diff newer than the requester's timestamp, including words
//!   that later diffs overwrite — the *diff accumulation* overhead.
//!
//! Both modes deliver updates as `(object, [(word, ts, value)])`, so
//! application at the acquirer is identical; only the wire bytes (and
//! hence virtual network time) differ.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use lots_net::NodeId;
use lots_sim::{BlockReason, SchedHandle, SimDuration, SimInstant, TimeCategory};
use parking_lot::Mutex;

use crate::config::{DiffMode, LockProtocol};
use crate::diff::WordDiff;
use crate::object::ObjectId;
use crate::protocol::messages::ctl;

use super::SyncCtx;

/// Application-visible lock identifier.
pub type LockId = u32;

/// One granted word update: (word index, release timestamp, value).
pub type WordUpdate = (u32, u64, u32);

/// Updates delivered with a grant, ready for
/// [`NodeState::apply_lock_updates`].
///
/// [`NodeState::apply_lock_updates`]: crate::node::NodeState::apply_lock_updates
pub type GrantUpdates = Vec<(ObjectId, Vec<WordUpdate>)>;

/// What a grant tells the acquirer to do (write-update mode carries
/// updates; write-invalidate mode carries invalidations + fetch hints).
#[derive(Debug, Default)]
pub struct Grant {
    /// Word updates to apply at acquire (write-update mode).
    pub updates: GrantUpdates,
    /// Objects to invalidate and the node holding the freshest copy
    /// (write-invalidate ablation mode only).
    pub invalidate: Vec<(ObjectId, NodeId)>,
    /// Wire bytes the grant payload occupied (drives the Fig. 7 bench).
    pub payload_bytes: usize,
}

struct LockState {
    ts: u64,
    holder: Option<NodeId>,
    /// Waiters ordered by the *virtual arrival* of their acquire
    /// request at the manager, `(req_arrive, node)` — not by physical
    /// FIFO. This makes the grant order a pure function of virtual
    /// time, so the parallel engine grants in exactly the order the
    /// sequential oracle does regardless of host thread timing.
    waiters: BTreeSet<(u64, NodeId)>,
    release_time: SimInstant,
    /// Per-field mode: obj → word → (ts, value). `BTreeMap`s so the
    /// grant payload is (obj, word)-ordered by construction —
    /// iteration order here reaches the wire.
    per_field: BTreeMap<u32, BTreeMap<u32, (u64, u32)>>,
    /// Accumulated mode: (release ts, obj, whole diff).
    accumulated: Vec<(u64, u32, WordDiff)>,
    /// obj → (last update ts, last writer); ordered like `per_field`.
    obj_meta: BTreeMap<u32, (u64, NodeId)>,
    /// Per node: highest release ts already delivered.
    seen: Vec<u64>,
    /// Epoch marker: barrier seq at which this lock was last reset.
    epoch: u64,
    /// Tasks parked waiting for this lock
    /// (re-registered on every wake; woken by release/poison).
    sched_waiters: Vec<SchedHandle>,
}

struct LockEntry {
    state: Mutex<LockState>,
}

/// The cluster-wide lock service.
pub struct LockService {
    n: usize,
    diff_mode: DiffMode,
    protocol: LockProtocol,
    locks: Mutex<BTreeMap<LockId, Arc<LockEntry>>>,
    /// Set when a node's app thread panicked; waiters unblock and
    /// propagate instead of waiting on a holder that will never release.
    poisoned: AtomicBool,
}

impl LockService {
    /// A lock service for `n` nodes under the given diff and protocol
    /// modes.
    pub fn new(n: usize, diff_mode: DiffMode, protocol: LockProtocol) -> LockService {
        LockService {
            n,
            diff_mode,
            protocol,
            locks: Mutex::new(BTreeMap::new()),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Mark the cluster as dead after an app-thread panic and wake all
    /// lock waiters so they fail loudly instead of hanging.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        let locks = self.locks.lock();
        for entry in locks.values() {
            // Drain under the entry mutex: a waiter checks the flag
            // and registers itself under it, so it either sees the
            // flag or is on the list drained here.
            super::wake_all(&mut entry.state.lock().sched_waiters);
        }
    }

    fn check_poison(&self) {
        if self.poisoned.load(Ordering::Acquire) {
            panic!("lock service poisoned: a peer app thread panicked (see its panic above)");
        }
    }

    /// The manager node of a lock (static distribution, as in JIAJIA).
    pub fn manager_of(&self, lock: LockId) -> NodeId {
        lock as usize % self.n
    }

    fn entry(&self, lock: LockId) -> Arc<LockEntry> {
        let mut locks = self.locks.lock();
        Arc::clone(locks.entry(lock).or_insert_with(|| {
            Arc::new(LockEntry {
                state: Mutex::new(LockState {
                    ts: 0,
                    holder: None,
                    waiters: BTreeSet::new(),
                    release_time: SimInstant::ZERO,
                    per_field: BTreeMap::new(),
                    accumulated: Vec::new(),
                    obj_meta: BTreeMap::new(),
                    seen: vec![0; self.n],
                    epoch: 0,
                    sched_waiters: Vec::new(),
                }),
            })
        }))
    }

    /// Acquire `lock` for `ctx.me`: blocks until granted in virtual
    /// request-arrival order, then returns the grant with its virtual
    /// arrival already merged into the caller's clock.
    ///
    /// The wait has two stages. While the lock is held or
    /// earlier-keyed requests are queued ahead, the task waits in the
    /// service's waiter list (reason `LockQueue`), re-woken by each
    /// release. Once it is the front
    /// waiter of a free lock it parks on the engine's conservative
    /// grant gate ([`SchedHandle::block_gated`]), which resumes it
    /// only when no other task could still issue a request sorting
    /// ahead of its `(req_arrive, node)` key — that is what makes the
    /// grant order independent of host thread timing. The gate bounds
    /// competing *requests*, not the previous holder's release, so the
    /// grant condition is re-checked after promotion.
    pub fn acquire(&self, lock: LockId, ctx: &SyncCtx) -> Grant {
        let entry = self.entry(lock);
        let mut st = entry.state.lock();
        // Virtual: the acquire request reaches the manager.
        let req_arrive = ctx.clock.now() + ctx.net.one_way(ctl::LOCK_ACQ);
        ctx.traffic.record_send(ctl::LOCK_ACQ, 1);
        let wait_from = ctx.clock.now();
        self.check_poison();
        let key = (req_arrive.nanos(), ctx.me);
        st.waiters.insert(key);
        loop {
            if st.holder.is_none() && st.waiters.first() == Some(&key) {
                drop(st);
                ctx.sched.block_gated(req_arrive, ctx.me);
                st = entry.state.lock();
                self.check_poison();
                if st.holder.is_none() && st.waiters.first() == Some(&key) {
                    break;
                }
            } else {
                st = super::sched_wait_step(
                    &entry.state,
                    st,
                    |s| &mut s.sched_waiters,
                    &ctx.sched,
                    BlockReason::LockQueue {
                        at: req_arrive.nanos(),
                        rank: ctx.me,
                    },
                );
                self.check_poison();
            }
        }
        st.waiters.remove(&key);
        st.holder = Some(ctx.me);
        // Virtual: grant issued when both the request has arrived and
        // the previous holder has released.
        let grant_issued = req_arrive.max(st.release_time) + ctx.cpu.handler_entry;
        let grant = self.build_grant(&mut st, ctx.me);
        st.seen[ctx.me] = st.ts;
        let grant_bytes = ctl::LOCK_GRANT + grant.payload_bytes;
        let arrival = grant_issued + ctx.net.one_way(grant_bytes);
        ctx.traffic.record_recv(grant_bytes);
        drop(st);
        let now = ctx.clock.advance_to(arrival);
        ctx.stats
            .charge(TimeCategory::SyncWait, now.saturating_sub(wait_from));
        grant
    }

    fn build_grant(&self, st: &mut LockState, me: NodeId) -> Grant {
        let seen = st.seen[me];
        match self.protocol {
            LockProtocol::WriteInvalidate => {
                // obj_meta is a BTreeMap: the list comes out
                // object-ordered, no defensive sort needed.
                let mut invalidate = Vec::new();
                for (&obj, &(ts, writer)) in &st.obj_meta {
                    if ts > seen && writer != me {
                        invalidate.push((ObjectId(obj), writer));
                    }
                }
                let payload = invalidate.len() * 8;
                Grant {
                    updates: Vec::new(),
                    invalidate,
                    payload_bytes: payload,
                }
            }
            LockProtocol::HomelessWriteUpdate => match self.diff_mode {
                DiffMode::PerFieldOnDemand => {
                    // Fig. 7b: on-demand diff — only words newer than
                    // the requester's timestamp.
                    // per_field's BTreeMaps iterate (obj, word)-ordered,
                    // so the update list is sorted by construction.
                    let mut updates: GrantUpdates = Vec::new();
                    let mut payload = 0usize;
                    for (&obj, words) in &st.per_field {
                        let fresh: Vec<(u32, u64, u32)> = words
                            .iter()
                            .filter(|&(_, &(ts, _))| ts > seen)
                            .map(|(&w, &(ts, v))| (w, ts, v))
                            .collect();
                        if fresh.is_empty() {
                            continue;
                        }
                        payload += 8 + fresh.len() * 8; // obj hdr + (word,val)
                        updates.push((ObjectId(obj), fresh));
                    }
                    Grant {
                        updates,
                        invalidate: Vec::new(),
                        payload_bytes: payload,
                    }
                }
                DiffMode::AccumulatedDiffs => {
                    // Fig. 7a: replay every stored diff newer than the
                    // requester's timestamp, redundancy included.
                    let mut updates: GrantUpdates = Vec::new();
                    let mut payload = 0usize;
                    for (ts, obj, diff) in &st.accumulated {
                        if *ts <= seen {
                            continue;
                        }
                        payload += 8 + diff.wire_size();
                        let words: Vec<(u32, u64, u32)> =
                            diff.iter_words().map(|(w, v)| (w, *ts, v)).collect();
                        updates.push((ObjectId(*obj), words));
                    }
                    Grant {
                        updates,
                        invalidate: Vec::new(),
                        payload_bytes: payload,
                    }
                }
            },
        }
    }

    /// Release `lock`, merging the critical section's updates into the
    /// manager's log. `make_updates` is called with the release
    /// timestamp and must return the CS diffs (from
    /// [`NodeState::exit_cs`]).
    ///
    /// [`NodeState::exit_cs`]: crate::node::NodeState::exit_cs
    pub fn release(
        &self,
        lock: LockId,
        ctx: &SyncCtx,
        make_updates: impl FnOnce(u64) -> Vec<(ObjectId, WordDiff)>,
    ) {
        let entry = self.entry(lock);
        let mut st = entry.state.lock();
        assert_eq!(st.holder, Some(ctx.me), "releasing a lock not held");
        let ts = st.ts + 1;
        st.ts = ts;
        let updates = make_updates(ts);
        let mut payload = 0usize;
        for (obj, diff) in updates {
            payload += 8 + diff.wire_size();
            st.obj_meta.insert(obj.0, (ts, ctx.me));
            match self.diff_mode {
                DiffMode::PerFieldOnDemand => {
                    let words = st.per_field.entry(obj.0).or_default();
                    for (w, v) in diff.iter_words() {
                        words.insert(w, (ts, v));
                    }
                }
                DiffMode::AccumulatedDiffs => {
                    st.accumulated.push((ts, obj.0, diff));
                }
            }
        }
        // Virtual: the release message (with updates) reaches the
        // manager; the next grant chains after it.
        let rel_bytes = ctl::LOCK_REL + payload;
        ctx.traffic
            .record_send(rel_bytes, ctx.net.fragments(rel_bytes));
        let arrive = ctx.clock.now() + ctx.net.one_way(rel_bytes);
        st.release_time = st.release_time.max(arrive) + ctx.cpu.handler_entry;
        st.holder = None;
        super::wake_all(&mut st.sched_waiters);
        // Sender-side cost of pushing the release out.
        ctx.clock.advance(SimDuration(ctx.net.per_fragment.0));
    }

    /// Barrier-epoch reset (§3.4): after a barrier every update has
    /// been propagated to homes, so lock logs are cleared and per-node
    /// timestamps rewound. Idempotent per barrier `seq`; called by the
    /// last node to arrive at the barrier drain while all others are
    /// still blocked.
    pub fn reset_epoch(&self, seq: u64) {
        let locks = self.locks.lock();
        for entry in locks.values() {
            let mut st = entry.state.lock();
            if st.epoch >= seq {
                continue;
            }
            st.epoch = seq;
            st.ts = 0;
            st.per_field.clear();
            st.accumulated.clear();
            st.obj_meta.clear();
            st.seen.iter_mut().for_each(|s| *s = 0);
        }
    }

    /// Bytes a grant to a fresh node (seen = 0) would carry right now —
    /// diagnostic used by the Figure 7 experiments.
    pub fn pending_grant_bytes(&self, lock: LockId) -> usize {
        let entry = self.entry(lock);
        let mut st = entry.state.lock();
        // Temporarily treat an imaginary node with seen=0.
        let saved = st.seen[0];
        st.seen[0] = 0;
        let g = self.build_grant(&mut st, 0);
        st.seen[0] = saved;
        g.payload_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::run_participants;
    use lots_sim::SimClock;

    /// Run `body` as the only participant of an engine; sequential
    /// tests play other ranks from it through [`as_rank`].
    fn solo<T: Send>(body: impl Fn(SyncCtx) -> T + Sync) -> T {
        run_participants(1, body).remove(0)
    }

    /// Rank `me` on `c`'s task, with its own clock.
    fn as_rank(c: &SyncCtx, me: NodeId) -> SyncCtx {
        SyncCtx {
            me,
            clock: SimClock::new(),
            ..c.clone()
        }
    }

    fn diff_of(words: &[(u32, u32)]) -> WordDiff {
        let mut d = WordDiff::default();
        for &(w, v) in words {
            d.runs.push(crate::diff::DiffRun {
                start: w,
                words: vec![v],
            });
        }
        d
    }

    #[test]
    fn uncontended_acquire_grants_immediately() {
        let svc = LockService::new(
            2,
            DiffMode::PerFieldOnDemand,
            LockProtocol::HomelessWriteUpdate,
        );
        solo(|c| {
            let g = svc.acquire(1, &c);
            assert!(g.updates.is_empty());
            assert!(c.clock.now().nanos() > 0, "RTT charged");
            svc.release(1, &c, |_| vec![]);
        });
    }

    #[test]
    fn updates_flow_to_next_acquirer() {
        let svc = LockService::new(
            2,
            DiffMode::PerFieldOnDemand,
            LockProtocol::HomelessWriteUpdate,
        );
        solo(|c0| {
            let c1 = as_rank(&c0, 1);
            svc.acquire(9, &c0);
            svc.release(9, &c0, |ts| {
                assert_eq!(ts, 1);
                vec![(ObjectId(4), diff_of(&[(0, 10), (1, 20)]))]
            });
            let g = svc.acquire(9, &c1);
            assert_eq!(g.updates.len(), 1);
            assert_eq!(g.updates[0].0, ObjectId(4));
            let mut words = g.updates[0].1.clone();
            words.sort_unstable_by_key(|&(w, _, _)| w);
            assert_eq!(words, vec![(0, 1, 10), (1, 1, 20)]);
            svc.release(9, &c1, |_| vec![]);
        });
    }

    #[test]
    fn no_redundant_resend_in_per_field_mode() {
        let svc = LockService::new(
            2,
            DiffMode::PerFieldOnDemand,
            LockProtocol::HomelessWriteUpdate,
        );
        solo(|c0| {
            let c1 = as_rank(&c0, 1);
            svc.acquire(1, &c0);
            svc.release(1, &c0, |_| vec![(ObjectId(0), diff_of(&[(0, 1)]))]);
            let g1 = svc.acquire(1, &c1);
            assert_eq!(g1.updates.len(), 1);
            svc.release(1, &c1, |_| vec![]);
            // Node 1 acquires again without intervening updates: nothing new.
            let g2 = svc.acquire(1, &c1);
            assert!(g2.updates.is_empty());
            assert_eq!(g2.payload_bytes, 0);
            svc.release(1, &c1, |_| vec![]);
        });
    }

    #[test]
    fn accumulated_mode_resends_overlapping_diffs() {
        // Figure 7: the same field updated at ts1..ts3; a fresh
        // acquirer receives all three copies in accumulated mode but
        // exactly one (the latest) in per-field mode.
        let mk = |mode| LockService::new(3, mode, LockProtocol::HomelessWriteUpdate);
        for (mode, expected_copies) in [
            (DiffMode::AccumulatedDiffs, 3),
            (DiffMode::PerFieldOnDemand, 1),
        ] {
            let svc = mk(mode);
            solo(|c0| {
                for v in [1u32, 2, 3] {
                    svc.acquire(5, &c0);
                    svc.release(5, &c0, |_| vec![(ObjectId(8), diff_of(&[(0, v)]))]);
                }
                let c2 = as_rank(&c0, 2);
                let g = svc.acquire(5, &c2);
                let copies: usize = g.updates.iter().map(|(_, w)| w.len()).sum();
                assert_eq!(copies, expected_copies, "mode {mode:?}");
                // Either way the final value must win.
                let last = g
                    .updates
                    .iter()
                    .flat_map(|(_, ws)| ws.iter())
                    .max_by_key(|&&(_, ts, _)| ts)
                    .copied()
                    .unwrap();
                assert_eq!(last.2, 3);
                svc.release(5, &c2, |_| vec![]);
            });
        }
    }

    #[test]
    fn write_invalidate_mode_sends_invalidations() {
        let svc = LockService::new(2, DiffMode::PerFieldOnDemand, LockProtocol::WriteInvalidate);
        solo(|c0| {
            let c1 = as_rank(&c0, 1);
            svc.acquire(1, &c0);
            svc.release(1, &c0, |_| vec![(ObjectId(3), diff_of(&[(0, 1)]))]);
            let g = svc.acquire(1, &c1);
            assert!(g.updates.is_empty());
            assert_eq!(g.invalidate, vec![(ObjectId(3), 0)]);
            svc.release(1, &c1, |_| vec![]);
        });
    }

    #[test]
    fn fifo_mutual_exclusion_under_contention() {
        let svc = LockService::new(
            4,
            DiffMode::PerFieldOnDemand,
            LockProtocol::HomelessWriteUpdate,
        );
        let counter = Mutex::new(0u64);
        run_participants(4, |c| {
            for _ in 0..200 {
                svc.acquire(0, &c);
                {
                    let mut g = counter.lock();
                    *g += 1;
                }
                svc.release(0, &c, |_| vec![]);
            }
        });
        assert_eq!(*counter.lock(), 800);
    }

    #[test]
    fn virtual_time_chains_through_releases() {
        let svc = LockService::new(
            2,
            DiffMode::PerFieldOnDemand,
            LockProtocol::HomelessWriteUpdate,
        );
        solo(|c0| {
            svc.acquire(1, &c0);
            c0.clock.advance(SimDuration::from_millis(50)); // long CS
            svc.release(1, &c0, |_| vec![]);
            let c1 = as_rank(&c0, 1);
            let g = svc.acquire(1, &c1);
            drop(g);
            // Node 1's grant cannot precede node 0's release.
            assert!(c1.clock.now().nanos() >= 50_000_000, "{}", c1.clock.now());
            svc.release(1, &c1, |_| vec![]);
        });
    }

    #[test]
    fn reset_epoch_clears_logs_idempotently() {
        let svc = LockService::new(
            2,
            DiffMode::PerFieldOnDemand,
            LockProtocol::HomelessWriteUpdate,
        );
        solo(|c0| {
            svc.acquire(1, &c0);
            svc.release(1, &c0, |_| vec![(ObjectId(0), diff_of(&[(0, 1)]))]);
            assert!(svc.pending_grant_bytes(1) > 0);
            svc.reset_epoch(1);
            svc.reset_epoch(1); // idempotent
            assert_eq!(svc.pending_grant_bytes(1), 0);
            // Fresh acquire after reset sees nothing.
            let g = svc.acquire(1, &c0);
            assert!(g.updates.is_empty());
            svc.release(1, &c0, |_| vec![]);
        });
    }

    #[test]
    fn manager_assignment_round_robin() {
        let svc = LockService::new(
            4,
            DiffMode::PerFieldOnDemand,
            LockProtocol::HomelessWriteUpdate,
        );
        assert_eq!(svc.manager_of(0), 0);
        assert_eq!(svc.manager_of(5), 1);
        assert_eq!(svc.manager_of(7), 3);
    }
}
