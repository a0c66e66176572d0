//! Deterministic virtual-time scheduling — the conservative parallel
//! discrete-event engine.
//!
//! PR 3 introduced the *turnstile*: cooperative lowest-clock-first
//! execution, one task at a time, making whole cluster runs
//! bit-reproducible. This module generalizes it to a **conservative
//! parallel DES** without giving that up:
//!
//! > **Lookahead windows.** Let `m` be the smallest ready time among
//! > runnable tasks and `L` the network's minimum link latency. Every
//! > runnable task with ready time in `[m, m + L)` — at most one per
//! > node — may run *concurrently*, because no message sent inside
//! > the window can arrive before `m + L`: nothing any member does
//! > can land in a co-member's consumable past.
//!
//! The engine executes these window batches in **epochs** on a bounded
//! worker pool. [`SchedulerMode::Deterministic`] drains each batch one
//! task at a time in key order (the sequential oracle, byte-identical
//! to the turnstile discipline); [`SchedulerMode::Parallel`] unparks
//! up to `workers` members at once. Both modes run the *same* epoch
//! logic over the *same* batches, and every cross-task interaction is
//! made order-invariant within an epoch (arrival-ordered message
//! consumption under a horizon, virtual-time-ordered lock queues
//! behind a conservative grant gate, merge-folded barrier rendezvous)
//! — so the two modes produce byte-identical reports. The full safety
//! argument lives in [`engine`].
//!
//! Submodules: [`engine`] (epoch driver, handles, deadlock detector),
//! `queue` (per-node run queues and batch selection), `task` (task
//! state and [`BlockReason`]), `lookahead` (the conservative
//! lock-grant gate).
//!
//! # Integration contract
//!
//! * Each node thread registers a task ([`Scheduler::register`]) and
//!   calls [`SchedHandle::attach`] first thing on its thread.
//! * A task must never hold an application lock across
//!   [`SchedHandle::block`] — release, block, re-acquire (the wait
//!   loops in the sync services do exactly this).
//! * Whoever makes a blocked task's wait condition true calls
//!   [`SchedHandle::wake`]/[`SchedHandle::wake_at`] on it. Wakes are
//!   sticky: waking a *running* task makes its next `block` return
//!   immediately, so check-then-block races are lost-wakeup-free —
//!   including, under `Parallel`, races with co-members of the same
//!   epoch.
//! * Comm threads are registered as *daemons*: they may stay blocked
//!   forever without tripping the deadlock detector, and are woken
//!   externally at shutdown. A comm turn may only consume buffered
//!   messages with arrival strictly below [`SchedHandle::horizon`],
//!   in `(arrival, src, seq)` order, and parks to its next event with
//!   [`SchedHandle::yield_until`].

pub mod engine;
pub mod explore;
pub(crate) mod lookahead;
pub(crate) mod queue;
pub(crate) mod task;

pub use engine::{SchedHandle, Scheduler};
pub use explore::{Choice, ScheduleScript};
pub use task::BlockReason;

/// How the virtual-time engine dispatches a cluster run's tasks.
/// Every mode runs the same epoch engine over the same batches; they
/// differ only in how many batch members run at once and in the
/// within-epoch dispatch order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerMode {
    /// Sequential conservative DES: epochs are drained one task at a
    /// time in key order. Bit-reproducible runs, no wall-clock
    /// polling — the oracle the parallel engine is gated against.
    #[default]
    Deterministic,
    /// Conservative *parallel* DES: epoch batches execute on a worker
    /// pool of `workers` concurrently unparked tasks. Reports are
    /// byte-identical to [`SchedulerMode::Deterministic`] for the
    /// same options (gated by `tests/determinism.rs`); host wall time
    /// shrinks with available cores.
    Parallel { workers: usize },
    /// Sequential engine driven by a [`ScheduleScript`]: at every
    /// epoch whose batch has more than one member, the dispatch order
    /// is chosen by the script instead of the canonical ascending
    /// `(ready, id)` order. A DFS driver (see `lots-analyze`)
    /// enumerates up to `max_schedules` distinct dispatch orders —
    /// exactly the orders the conservative-lookahead safety argument
    /// claims are equivalent — and checks that every one produces the
    /// same report fingerprint (or exposes the same deadlock).
    /// `max_schedules` bounds the driver's enumeration; a single run
    /// under this mode behaves like [`SchedulerMode::Deterministic`]
    /// with a permuted within-epoch order.
    Explore { max_schedules: usize },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{SimClock, SimDuration, SimInstant};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex as StdMutex};

    fn turnstile() -> Arc<Scheduler> {
        // L = 0: every epoch is a solo batch — the PR 3 turnstile.
        Scheduler::new(SchedulerMode::Deterministic, SimDuration::ZERO)
    }

    fn log_push(log: &Arc<StdMutex<Vec<(usize, u64)>>>, id: usize, t: u64) {
        log.lock().unwrap().push((id, t));
    }

    #[test]
    fn lowest_ready_time_runs_first() {
        let sched = turnstile();
        let log: Arc<StdMutex<Vec<(usize, u64)>>> = Arc::new(StdMutex::new(Vec::new()));
        let mut handles = Vec::new();
        // Tasks 0/1/2 start with clocks 30/10/20: expect 1, 2, 0.
        for (i, start) in [(0usize, 30u64), (1, 10), (2, 20)] {
            let clock = SimClock::new();
            clock.advance(SimDuration(start));
            let h = sched.register(format!("t{i}"), clock.clone(), i, false);
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                h.attach();
                log_push(&log, i, clock.now().nanos());
                h.finish();
            }));
        }
        sched.launch();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(*log.lock().unwrap(), vec![(1, 10), (2, 20), (0, 30)]);
    }

    #[test]
    fn ping_pong_is_deterministic_and_clock_ordered() {
        // Two tasks alternate; each wakes the other, then blocks. The
        // interleaving must follow the clocks exactly, every run.
        let run = || {
            let sched = turnstile();
            let log: Arc<StdMutex<Vec<(usize, u64)>>> = Arc::new(StdMutex::new(Vec::new()));
            let c0 = SimClock::new();
            let c1 = SimClock::new();
            let h0 = sched.register("a", c0.clone(), 0, false);
            let h1 = sched.register("b", c1.clone(), 1, false);
            let peers = [h1.clone(), h0.clone()];
            let mut threads = Vec::new();
            for (i, (h, c)) in [(h0, c0), (h1, c1)].into_iter().enumerate() {
                let log = Arc::clone(&log);
                let peer = peers[i].clone();
                threads.push(std::thread::spawn(move || {
                    h.attach();
                    for step in 0..4u64 {
                        log_push(&log, i, c.now().nanos());
                        // Task 0 takes bigger steps than task 1, so the
                        // engine must interleave them unevenly.
                        c.advance(SimDuration(if i == 0 { 30 } else { 10 } * (step + 1)));
                        peer.wake();
                        h.block();
                    }
                    peer.wake();
                    h.finish();
                }));
            }
            sched.launch();
            for t in threads {
                t.join().unwrap();
            }
            let log = log.lock().unwrap().clone();
            log
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same program, same schedule");
        // Every dispatch picked the lowest-clock runnable task: the
        // fast task (short steps) gets dispatched whenever its clock
        // trails, regardless of OS thread timing.
        assert_eq!(
            a,
            vec![
                (0, 0),
                (1, 0),
                (0, 30),
                (1, 10),
                (0, 90),
                (1, 30),
                (0, 180),
                (1, 60),
            ]
        );
    }

    #[test]
    fn sticky_wake_prevents_lost_wakeups() {
        let sched = turnstile();
        let c = SimClock::new();
        let h = sched.register("worker", c.clone(), 0, false);
        let ext = h.clone();
        let gate = Arc::new(AtomicBool::new(false));
        let gate2 = Arc::clone(&gate);
        let t = std::thread::spawn(move || {
            h.attach();
            // Wait for the external wake to land while we are Running:
            // it must be recorded sticky so the block below returns
            // immediately instead of parking forever (there is no
            // other task to wake us).
            while !gate2.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let _ = c.now();
            h.block();
            h.finish();
        });
        sched.launch(); // dispatch: the task is Running from here on
        ext.wake(); // lands on a Running task → wake_pending
        gate.store(true, Ordering::Release);
        t.join().unwrap();
    }

    #[test]
    fn idle_scheduler_restarts_on_external_wake() {
        let sched = turnstile();
        let clock = SimClock::new();
        let h = sched.register("daemon", clock.clone(), 0, true);
        let stop = Arc::new(AtomicBool::new(false));
        let (hx, stop2) = (h.clone(), Arc::clone(&stop));
        let t = std::thread::spawn(move || {
            hx.attach();
            while !stop2.load(Ordering::Acquire) {
                hx.block_with(BlockReason::Idle);
            }
            hx.finish();
        });
        sched.launch();
        // The daemon blocks and the scheduler goes idle; an external
        // wake must restart dispatching.
        std::thread::sleep(std::time::Duration::from_millis(10));
        stop.store(true, Ordering::Release);
        h.wake();
        t.join().unwrap();
    }

    #[test]
    fn deadlock_is_detected_not_hung() {
        let sched = turnstile();
        let c = SimClock::new();
        let h = sched.register("stuck", c, 0, false);
        let t = std::thread::spawn(move || {
            h.attach();
            h.block(); // nobody will ever wake us
            unreachable!("block must panic on deadlock");
        });
        sched.launch();
        let err = t.join().unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("virtual-time deadlock"), "got: {msg}");
    }

    #[test]
    fn deadlock_snapshot_names_block_reasons() {
        let sched = turnstile();
        let h = sched.register("lonely", SimClock::new(), 0, false);
        let t = std::thread::spawn(move || {
            h.attach();
            // A barrier wait that no peer will ever complete.
            h.block_with(BlockReason::Barrier);
            unreachable!("block must panic on deadlock");
        });
        sched.launch();
        let err = t.join().unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("barrier-wait"), "got: {msg}");
    }

    #[test]
    fn wake_at_orders_runnable_tasks() {
        // A controller wakes daemon 1 at t=500 and daemon 2 at t=100
        // while it is still running; once it finishes, the t=100
        // daemon must be dispatched first despite its higher id.
        let sched = turnstile();
        let log: Arc<StdMutex<Vec<(usize, u64)>>> = Arc::new(StdMutex::new(Vec::new()));
        // The controller's clock starts at 10, so both daemons (at 0)
        // run — and block — before it is dispatched.
        let ctl_clock = SimClock::new();
        ctl_clock.advance(SimDuration(10));
        let ctl = sched.register("ctl", ctl_clock, 0, false);
        let mut daemons = Vec::new();
        let mut threads = Vec::new();
        for i in 1..=2usize {
            let c = SimClock::new();
            let h = sched.register(format!("d{i}"), c, i, true);
            daemons.push(h.clone());
            let log = Arc::clone(&log);
            threads.push(std::thread::spawn(move || {
                h.attach();
                h.block_with(BlockReason::Idle); // park until the hint arrives
                log_push(&log, i, 0);
                h.finish();
            }));
        }
        {
            let h = ctl.clone();
            let targets = daemons.clone();
            threads.push(std::thread::spawn(move || {
                h.attach();
                targets[0].wake_at(SimInstant(500));
                targets[1].wake_at(SimInstant(100));
                h.finish();
            }));
        }
        sched.launch();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(
            log.lock()
                .unwrap()
                .iter()
                .map(|&(i, _)| i)
                .collect::<Vec<_>>(),
            vec![2, 1]
        );
    }

    #[test]
    fn parallel_batches_really_run_concurrently() {
        // Two tasks inside one lookahead window rendezvous on shared
        // atomics: each signals it is running, then spins until the
        // other has signalled. Only genuine concurrency (both
        // dispatched in the same epoch) lets this complete.
        let sched = Scheduler::new(
            SchedulerMode::Parallel { workers: 2 },
            SimDuration::from_micros(95),
        );
        let flags = Arc::new([AtomicBool::new(false), AtomicBool::new(false)]);
        let mut threads = Vec::new();
        for i in 0..2usize {
            let h = sched.register(format!("t{i}"), SimClock::new(), i, false);
            let flags = Arc::clone(&flags);
            threads.push(std::thread::spawn(move || {
                h.attach();
                flags[i].store(true, Ordering::Release);
                while !flags[1 - i].load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                h.finish();
            }));
        }
        sched.launch();
        for t in threads {
            t.join().unwrap();
        }
        let s = sched.summary();
        assert_eq!(s.max_concurrent, 2);
        assert_eq!(s.turns, 2);
        assert_eq!(s.epochs, 1);
        assert_eq!(s.worker_busy_ns.len(), 2);
    }

    #[test]
    fn horizon_is_infinite_solo_and_windowed_in_batches() {
        // Task 0 starts at clock 0, task 1 at 10 000, L = 1 000: each
        // first turn is solo (infinite horizon). Task 0 advances to
        // 10 000 and blocks; task 1 wakes it and yields to the same
        // instant — the next epoch is a two-member batch with horizon
        // m + L = 11 000.
        let sched = Scheduler::new(SchedulerMode::Parallel { workers: 2 }, SimDuration(1_000));
        let seen: Arc<StdMutex<Vec<(usize, u64)>>> = Arc::new(StdMutex::new(Vec::new()));
        let c0 = SimClock::new();
        let c1 = SimClock::new();
        c1.advance(SimDuration(10_000));
        let h0 = sched.register("t0", c0.clone(), 0, false);
        let h1 = sched.register("t1", c1.clone(), 1, false);
        let mut threads = Vec::new();
        {
            let (h, peer, seen) = (h0.clone(), h1.clone(), Arc::clone(&seen));
            threads.push(std::thread::spawn(move || {
                h.attach();
                seen.lock().unwrap().push((0, h.horizon().nanos()));
                c0.advance(SimDuration(10_000));
                let _ = peer; // task 1 is not registered runnable-first
                h.block(); // task 1 wakes us into the joint window
                seen.lock().unwrap().push((0, h.horizon().nanos()));
                h.finish();
            }));
        }
        {
            let (h, peer, seen) = (h1, h0, Arc::clone(&seen));
            threads.push(std::thread::spawn(move || {
                h.attach();
                seen.lock().unwrap().push((1, h.horizon().nanos()));
                peer.wake();
                h.yield_until(c1.now()); // runnable again at 10 000
                seen.lock().unwrap().push((1, h.horizon().nanos()));
                h.finish();
            }));
        }
        sched.launch();
        for t in threads {
            t.join().unwrap();
        }
        let mut got = seen.lock().unwrap().clone();
        got.sort_unstable();
        assert_eq!(
            got,
            vec![(0, 11_000), (0, u64::MAX), (1, 11_000), (1, u64::MAX)]
        );
        assert_eq!(sched.summary().epochs, 3);
    }

    #[test]
    fn gate_promotion_waits_for_competitors() {
        // Task 0 parks on the lock-grant gate with key (100, 0). While
        // task 1 is still runnable at clock 0 it could yet issue an
        // earlier request, so the gate must hold; once task 1 blocks at
        // clock 5 000 its bound moves past the key and task 0 resumes.
        let sched = turnstile();
        let log: Arc<StdMutex<Vec<&'static str>>> = Arc::new(StdMutex::new(Vec::new()));
        let c1 = SimClock::new();
        let h0 = sched.register("gated", SimClock::new(), 0, false);
        let h1 = sched.register("rival", c1.clone(), 1, false);
        let mut threads = Vec::new();
        {
            let (h, peer, log) = (h0, h1.clone(), Arc::clone(&log));
            threads.push(std::thread::spawn(move || {
                h.attach();
                h.block_gated(SimInstant(100), 0);
                log.lock().unwrap().push("granted");
                peer.wake();
                h.finish();
            }));
        }
        {
            let (h, log) = (h1, Arc::clone(&log));
            threads.push(std::thread::spawn(move || {
                h.attach();
                c1.advance(SimDuration(5_000));
                log.lock().unwrap().push("rival-blocked");
                h.block();
                h.finish();
            }));
        }
        sched.launch();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*log.lock().unwrap(), vec!["rival-blocked", "granted"]);
    }
}
