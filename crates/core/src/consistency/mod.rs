//! Scope Consistency synchronization services (§3.4).
//!
//! Locks implement the homeless write-update side of the mixed
//! protocol; barriers implement the migrating-home write-invalidate
//! side. Both are *shared cluster services*: participants park on the
//! virtual-time engine ([`sched_wait_step`]) while the control-message
//! costs (requests, grants, enter/exit) are charged analytically to the
//! participants' virtual clocks and traffic counters — see DESIGN.md §2.

pub mod barrier;
pub mod locks;

use lots_net::TrafficStats;
use lots_sim::machine::{fast_ethernet, pentium4_2ghz};
use lots_sim::{
    BlockReason, CpuModel, NetModel, NodeStats, SchedHandle, Scheduler, SchedulerMode, SimClock,
    SimDuration,
};
use parking_lot::{Mutex, MutexGuard};

/// One virtual-time-engine wait step, shared by every sync service
/// (LOTS and JIAJIA barriers and locks): register the calling task in
/// the service's waiter list, hand the execution token back to the
/// scheduler (declaring `reason` so the deadlock detector and the
/// conservative lock-grant gate can classify the wait), and re-acquire
/// the state lock once woken. Callers loop on their rendezvous
/// condition (re-checking poison) around this — wakes are collective,
/// so spurious wakeups are expected.
///
/// The registration happens under the same mutex the waker drains, and
/// wakes delivered between the guard drop and [`SchedHandle::block_with`]
/// are sticky (the block returns immediately), so the step is
/// lost-wakeup-free — under the sequential turnstile *and* under the
/// parallel engine, where the waker may be a concurrent batch member.
pub fn sched_wait_step<'a, T>(
    mutex: &'a Mutex<T>,
    mut guard: MutexGuard<'a, T>,
    waiters: impl FnOnce(&mut T) -> &mut Vec<SchedHandle>,
    h: &SchedHandle,
    reason: BlockReason,
) -> MutexGuard<'a, T> {
    waiters(&mut guard).push(h.clone());
    drop(guard);
    h.block_with(reason);
    mutex.lock()
}

/// Wake every task parked on a service's waiter list (the other half
/// of [`sched_wait_step`]): whoever completes a rendezvous, releases a
/// lock or poisons the service calls this.
pub fn wake_all(waiters: &mut Vec<SchedHandle>) {
    waiters.drain(..).for_each(|w| w.wake());
}

/// Per-node handles the synchronization services need to charge
/// virtual time and traffic.
#[derive(Clone)]
pub struct SyncCtx {
    /// This node's rank.
    pub me: lots_net::NodeId,
    /// The node's virtual clock.
    pub clock: SimClock,
    /// The node's time/counter statistics.
    pub stats: NodeStats,
    /// The node's traffic counters.
    pub traffic: TrafficStats,
    /// Interconnect cost model.
    pub net: NetModel,
    /// CPU cost model.
    pub cpu: CpuModel,
    /// The calling (application) task's scheduler handle: the
    /// services park through it while they wait.
    pub sched: SchedHandle,
}

/// Run `n` sync-service participants as tasks of a fresh sequential
/// engine with zero lookahead (every epoch a solo batch), for unit
/// tests and benches of the services outside a cluster. Participant
/// `i` runs `body` on its own thread with a fresh [`SyncCtx`] of rank
/// `i` (Fast Ethernet, 2 GHz Pentium 4); the results come back in rank
/// order, and a panicking body re-raises here.
pub fn run_participants<T: Send>(n: usize, body: impl Fn(SyncCtx) -> T + Sync) -> Vec<T> {
    let sched = Scheduler::new(SchedulerMode::Deterministic, SimDuration::ZERO);
    let ctxs: Vec<SyncCtx> = (0..n)
        .map(|me| {
            let clock = SimClock::new();
            SyncCtx {
                me,
                sched: sched.register(format!("participant-{me}"), clock.clone(), me, false),
                clock,
                stats: NodeStats::new(),
                traffic: TrafficStats::new(),
                net: fast_ethernet(),
                cpu: pentium4_2ghz(),
            }
        })
        .collect();
    std::thread::scope(|scope| {
        let threads: Vec<_> = ctxs
            .into_iter()
            .map(|ctx| {
                let body = &body;
                scope.spawn(move || {
                    let task = ctx.sched.clone();
                    task.attach();
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(ctx)));
                    task.finish();
                    r.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                })
            })
            .collect();
        sched.launch();
        threads
            .into_iter()
            .map(|t| t.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}
