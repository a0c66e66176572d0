//! The cluster harness every DSM runtime runs on.
//!
//! A cluster run is `n` simulated nodes. Each node has an
//! **application task**, which runs the user's SPMD closure against
//! the protocol's DSM handle, and a **comm task**, the analogue of the
//! paper's SIGIO handler (§3.6): it services data-plane requests
//! against the node's shared state and forwards replies to the
//! application task. With journal compaction on, each node also runs a
//! **persist daemon**. All of them are tasks of one virtual-time engine
//! ([`lots_sim::sched`]). Message delivery, barrier rendezvous, lock
//! hand-offs and reply waits park and unpark through it, nothing waits
//! on a wall clock, and the same options give byte-identical reports
//! under every [`SchedulerMode`].
//!
//! The harness owns what every protocol shares: clocks, task
//! registration, the interconnect, fault and drop diagnostics, the
//! persist daemons, poisoning, the join and primary-panic logic, the
//! report probes, the comm loop and restore. A [`Protocol`] supplies
//! the rest: node state, the request handler, the DSM handle and the
//! per-node report. LOTS ([`crate::runtime`]) and the JIAJIA baseline
//! (`lots-jiajia`) both run here, so LOTS-vs-JIAJIA deltas come from
//! the protocols, not from the harness.

use std::any::Any;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use lots_analyze::{AnalyzeConfig, RaceDetector, RaceReport};
use lots_net::{
    cluster_net, Buffered, Envelope, NetReceiver, NetSender, NodeId, TrafficStats, WireSize,
};
use lots_persist::{NodeJournal, PersistConfig, PersistStore, RestoredCluster};
use lots_sim::{
    BlockReason, CpuModel, CrashFault, DiskQueue, FaultPlan, MachineConfig, NodeStats, SchedHandle,
    SchedSummary, ScheduleScript, Scheduler, SchedulerMode, SimClock, SimDuration, SimInstant,
    Topology,
};
use parking_lot::Mutex;

use crate::consistency::SyncCtx;

/// The per-system half of a cluster run. A value of the implementing
/// type is the protocol's own options, carried in [`Options::proto`].
pub trait Protocol: Sized + Send + Sync + 'static {
    /// What [`Options::new`] takes besides cluster size and machine.
    type Arg;
    /// The protocol's wire message.
    type Msg: WireSize + Send + 'static;
    /// Per-node protocol state, shared by the node's tasks.
    type Node: Send + 'static;
    /// Cluster-wide synchronization services, cloned into every node.
    type Services: Clone + Send + 'static;
    /// The application's handle on its node.
    type Dsm;
    /// What the run's report says about one node.
    type NodeReport;

    /// Prefix of task and thread names (`lots-app-3`, `jia-comm-0`).
    const NAME: &'static str;

    /// The protocol options [`Options::new`] starts from.
    fn configure(arg: Self::Arg, machine: &MachineConfig) -> Self;
    /// The journal policy (`None`: persistence off).
    fn persist(&mut self) -> &mut Option<PersistConfig>;
    /// Reject options this protocol cannot run, before anything starts.
    fn validate(_opts: &Options<Self>) {}
    /// The cluster-wide synchronization services.
    fn services(opts: &Options<Self>) -> Self::Services;
    /// Poison every service so peers blocked in them fail loudly
    /// instead of waiting for a node that panicked.
    fn poison(services: &Self::Services);
    /// Node `me`'s initial state.
    fn node(
        opts: &Options<Self>,
        me: NodeId,
        cpu: CpuModel,
        clock: SimClock,
        stats: NodeStats,
    ) -> Self::Node;
    /// The node's serial disk device, where compaction I/O queues.
    fn disk(node: &mut Self::Node) -> Option<&mut DiskQueue>;
    /// Service one message on the comm task, replying through `net`.
    /// A reply addressed to the application task is handed back.
    fn handle(
        node: &Mutex<Self::Node>,
        net: &NetSender<Self::Msg>,
        env: Envelope<Self::Msg>,
    ) -> Option<Envelope<Self::Msg>>;
    /// Build the application's handle, on the application task.
    fn dsm(parts: NodeParts<Self>) -> Self::Dsm;
    /// The node's report once the run is over.
    fn node_report(summary: NodeSummary, node: &Self::Node) -> Self::NodeReport;
}

/// Everything needed to start a cluster run of protocol `P`.
pub struct Options<P> {
    /// Cluster size.
    pub n: usize,
    /// Simulated machine (CPU, network, disk models).
    pub machine: MachineConfig,
    /// Per-link latency/bandwidth overrides on top of the machine's
    /// base network model. [`Topology::uniform`] (the default) keeps
    /// every link on the base model and the scheduler lookahead equal
    /// to [`lots_sim::NetModel::min_latency`].
    pub topology: Topology,
    /// How the engine dispatches tasks (default: sequential).
    pub scheduler: SchedulerMode,
    /// Cluster seed: surfaced to applications via
    /// [`crate::DsmApi::seed`] (seeded workloads fold it into their
    /// RNG streams) and echoed in [`Report::seed`].
    pub seed: u64,
    /// Seeded fault injection (delays, stragglers, node panics).
    pub faults: FaultPlan,
    /// Correctness analysis (off by default — a disabled config adds
    /// one branch per access and leaves virtual times untouched).
    pub analyze: AnalyzeConfig,
    /// Schedule script for [`SchedulerMode::Explore`]: pins the
    /// dispatch order among equivalent-batch permutations. Installed
    /// on the scheduler before launch; `None` means canonical order.
    pub explore: Option<ScheduleScript>,
    /// Journal store for the persistence subsystem. Only consulted
    /// when the protocol's journal policy is set; `None` then creates
    /// a fresh in-memory store. Pass a shared handle to inspect the
    /// logs after the run (or to restore from them later).
    pub persist_store: Option<PersistStore>,
    /// Restored cluster state to verify a replay against, installed by
    /// [`restore`]: each node's journal asserts every sealed digest and
    /// virtual clock it reproduces, and barriers beyond the restored
    /// checkpoint count as replayed.
    pub persist_verify: Option<Arc<RestoredCluster>>,
    /// The protocol's own options.
    pub proto: P,
}

impl<P: Protocol> Options<P> {
    /// Options with the protocol's defaults, the deterministic
    /// scheduler, seed 0 and no faults.
    pub fn new(n: usize, arg: P::Arg, machine: MachineConfig) -> Options<P> {
        Options {
            n,
            proto: P::configure(arg, &machine),
            machine,
            topology: Topology::uniform(),
            scheduler: SchedulerMode::Deterministic,
            seed: 0,
            faults: FaultPlan::none(),
            analyze: AnalyzeConfig::off(),
            explore: None,
            persist_store: None,
            persist_verify: None,
        }
    }

    /// Install per-link latency/bandwidth overrides.
    pub fn with_topology(mut self, topology: Topology) -> Options<P> {
        self.topology = topology;
        self
    }

    /// Select how the engine dispatches tasks.
    pub fn with_scheduler(mut self, mode: SchedulerMode) -> Options<P> {
        self.scheduler = mode;
        self
    }

    /// Set the cluster seed (workload data reproducibility).
    pub fn with_seed(mut self, seed: u64) -> Options<P> {
        self.seed = seed;
        self
    }

    /// Attach a fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Options<P> {
        self.faults = faults;
        self
    }

    /// Enable correctness analysis (e.g. [`AnalyzeConfig::races`]).
    pub fn with_analyze(mut self, analyze: AnalyzeConfig) -> Options<P> {
        self.analyze = analyze;
        self
    }

    /// Install a schedule script (see [`SchedulerMode::Explore`]).
    pub fn with_explore_script(mut self, script: ScheduleScript) -> Options<P> {
        self.explore = Some(script);
        self
    }

    /// Turn on the persistence journal (see [`PersistConfig`]).
    pub fn with_persist(mut self, persist: PersistConfig) -> Options<P> {
        *self.proto.persist() = Some(persist);
        self
    }

    /// Journal into the given [`PersistStore`] (only meaningful with
    /// persistence on). The caller keeps a clone to inspect or restore
    /// from after the run.
    pub fn with_persist_store(mut self, store: PersistStore) -> Options<P> {
        self.persist_store = Some(store);
        self
    }
}

/// What the harness measures of every node, whatever the protocol.
#[derive(Debug, Clone)]
pub struct NodeSummary {
    /// The node's rank.
    pub me: NodeId,
    /// Final virtual time (the node's execution time).
    pub time: SimInstant,
    /// The node's time/counter statistics.
    pub stats: NodeStats,
    /// The node's traffic counters.
    pub traffic: TrafficStats,
    /// Scheduler dispatches of this node's app + comm tasks. A pure
    /// function of the simulated schedule: identical across
    /// `Deterministic` and `Parallel` runs.
    pub sched_turns: u64,
    /// Wakes delivered to this node's app + comm tasks; deterministic
    /// like `sched_turns`.
    pub sched_wakes: u64,
}

/// Cluster-wide outcome of a run; `N` is the protocol's node report.
#[derive(Debug, Clone)]
pub struct Report<N> {
    /// Per-node reports, indexed by rank.
    pub nodes: Vec<N>,
    /// Execution time: the slowest node's final virtual clock.
    pub exec_time: SimInstant,
    /// The seed the cluster ran with (see [`Options::seed`]).
    pub seed: u64,
    /// Whole-run scheduler counters. Always `Some` (every run is an
    /// engine run); it stays an `Option` because existing callers, the
    /// benchmark harness among them, read it through `as_ref()`.
    /// `turns`/`wakes`/`epochs` are engine-independent; the worker
    /// fields describe host execution only.
    pub sched: Option<SchedSummary>,
    /// Race-detector report (`Some` iff analysis was enabled via
    /// [`Options::analyze`]); deterministic like every other field.
    pub races: Option<RaceReport>,
}

impl<N> Report<N> {
    /// Sum over nodes of a per-node counter.
    pub fn total<F: Fn(&N) -> u64>(&self, f: F) -> u64 {
        self.nodes.iter().map(f).sum()
    }
}

/// What [`Protocol::dsm`] builds node `ctx.me`'s handle from.
pub struct NodeParts<P: Protocol> {
    /// The node's sync context (clock, stats, traffic, app task).
    pub ctx: SyncCtx,
    /// The node's state, shared with its comm task.
    pub node: Arc<Mutex<P::Node>>,
    /// The node's sending endpoint.
    pub net: NetSender<P::Msg>,
    /// Replies the comm task forwards (see [`recv_reply`]).
    pub replies: Receiver<Envelope<P::Msg>>,
    /// The cluster's synchronization services.
    pub services: P::Services,
    /// Cluster seed.
    pub seed: u64,
    /// Fault injection: panic on entering this (1-based) barrier.
    pub fault_barrier: Option<u64>,
    /// Fault injection: crash after this fault's barrier, then rejoin.
    pub crash_fault: Option<CrashFault>,
    /// The cluster's race detector, when analysis is on.
    pub analyze: Option<Arc<RaceDetector>>,
    /// The node's journal, when persistence is on: appended after every
    /// barrier, shared with the node's persist daemon.
    pub journal: Option<Arc<Mutex<NodeJournal>>>,
}

/// Wait on `task` for the next reply the node's comm task forwards.
/// The `Reply` block reason tells the conservative lock-grant gate and
/// the deadlock snapshot that this task cannot act before the reply's
/// (lookahead-bounded) arrival.
pub fn recv_reply<M>(replies: &Receiver<Envelope<M>>, task: &SchedHandle) -> Envelope<M> {
    loop {
        match replies.try_recv() {
            Ok(env) => return env,
            Err(TryRecvError::Empty) => task.block_with(BlockReason::Reply),
            Err(TryRecvError::Disconnected) => {
                panic!("comm thread gone while app waiting for a reply")
            }
        }
    }
}

/// Run an SPMD application on a simulated cluster of protocol `P`.
///
/// `app` is invoked once per node with that node's DSM handle; the
/// call returns each node's result plus the cluster report. Same
/// options ⇒ byte-identical report. A node panic poisons the sync
/// services so its peers fail too, and the first original panic is
/// re-raised here.
pub fn run<P, R, F>(mut opts: Options<P>, app: F) -> (Vec<R>, Report<P::NodeReport>)
where
    P: Protocol,
    R: Send + 'static,
    F: Fn(&P::Dsm) -> R + Send + Sync + 'static,
{
    let n = opts.n;
    assert!(n >= 1, "cluster needs at least one node");
    P::validate(&opts);
    let clocks: Vec<SimClock> = (0..n).map(|_| SimClock::new()).collect();
    // Persistence: one journal store for the cluster (caller-supplied
    // or fresh) and, with compaction on, one daemon task per node.
    // With persistence off nothing below exists.
    let persist_cfg = opts.proto.persist().clone();
    let persist_store = persist_cfg.as_ref().map(|_| {
        opts.persist_store
            .clone()
            .unwrap_or_else(|| PersistStore::new(n))
    });
    let compaction_poll = persist_cfg
        .as_ref()
        .filter(|p| p.compaction.enabled)
        .map(|p| p.compaction.poll);
    // App tasks get ids 0..n, comm tasks n..2n, so clock ties resolve
    // app-first in rank order; all tasks of node i carry node index i
    // (one task per node per epoch). The lookahead window is the
    // minimum latency over the topology's live links, floored above
    // zero so degenerate topologies cannot stall epoch progress.
    let sched = Scheduler::new(
        opts.scheduler,
        opts.topology.lookahead(&opts.machine.net, n),
    );
    if let Some(script) = &opts.explore {
        sched.set_script(script.clone());
    }
    let task_name = |role: &str, i: usize| format!("{}-{role}-{i}", P::NAME);
    let apps: Vec<SchedHandle> = (0..n)
        .map(|i| sched.register(task_name("app", i), clocks[i].clone(), i, false))
        .collect();
    let comms: Vec<SchedHandle> = (0..n)
        .map(|i| sched.register(task_name("comm", i), clocks[i].clone(), i, true))
        .collect();
    // Compaction daemons carry their own clocks: they poll in virtual
    // time independently of the node's app/comm progress, and the
    // engine's one-task-per-node-per-epoch rule keeps the interleaving
    // deterministic.
    let persists: Vec<(SchedHandle, SimClock)> = (0..n)
        .filter(|_| compaction_poll.is_some())
        .map(|i| {
            let c = SimClock::new();
            (
                sched.register(task_name("persist", i), c.clone(), i, true),
                c,
            )
        })
        .collect();
    // delay_for() short-circuits when no delay is configured, so the
    // net layer can take the whole plan whenever anything is active.
    let fault_delays = opts
        .faults
        .is_active()
        .then(|| Arc::new(opts.faults.clone()));
    let net = cluster_net::<P::Msg>(
        n,
        opts.machine.net,
        opts.topology.clone(),
        comms.clone(),
        fault_delays,
    );
    // If a lost message strands a requester and trips the deadlock
    // detector, its snapshot names the dropped (src, dst, seq).
    let drops = net.drops.clone();
    sched.set_diagnostic(move || drops.render());
    let services = P::services(&opts);
    let shutdown = Arc::new(AtomicBool::new(false));
    let app = Arc::new(app);
    // One detector instance spans the cluster: nodes stamp it through
    // their DSM hooks, the report is drained after the join below.
    let detector = opts
        .analyze
        .race_detect
        .then(|| Arc::new(RaceDetector::new(n)));

    let mut app_threads = Vec::with_capacity(n);
    let mut daemon_threads = Vec::with_capacity(2 * n);
    let mut probes = Vec::with_capacity(n);
    for (me, (tx, rx)) in net.endpoints.into_iter().enumerate() {
        let clock = clocks[me].clone();
        let stats = NodeStats::new();
        let cpu = opts.machine.cpu.scaled(opts.faults.cpu_factor(me));
        let node = Arc::new(Mutex::new(P::node(
            &opts,
            me,
            cpu,
            clock.clone(),
            stats.clone(),
        )));
        probes.push((stats.clone(), tx.stats().clone(), Arc::clone(&node)));

        // This node's journal (appended by the app task after every
        // barrier) and its background compaction daemon.
        let journal = persist_cfg.as_ref().map(|p| {
            let store = persist_store.clone().expect("store exists with persist on");
            let mut j = NodeJournal::new(me, store, p.clone());
            if let Some(restored) = &opts.persist_verify {
                j.set_verify(restored.verify_plan(me));
            }
            Arc::new(Mutex::new(j))
        });
        if let (Some(poll), Some(journal)) = (compaction_poll, &journal) {
            let (task, clock) = persists[me].clone();
            let daemon = Compactor::<P> {
                task,
                clock,
                node: Arc::clone(&node),
                journal: Arc::clone(journal),
                stats: stats.clone(),
                shutdown: Arc::clone(&shutdown),
                poll,
            };
            daemon_threads.push(spawn(task_name("persist", me), move || daemon.run()));
        }

        let (reply_tx, reply_rx) = unbounded::<Envelope<P::Msg>>();
        let comm = CommLoop::<P> {
            node: Arc::clone(&node),
            net: tx.clone(),
            rx,
            reply_tx,
            shutdown: Arc::clone(&shutdown),
            task: comms[me].clone(),
            app: apps[me].clone(),
        };
        let comm_services = services.clone();
        daemon_threads.push(spawn(task_name("comm", me), move || {
            let task = comm.task.clone();
            run_task::<P, _>(&task, &comm_services, || comm.run())
        }));

        let parts = NodeParts::<P> {
            ctx: SyncCtx {
                me,
                clock,
                stats,
                traffic: tx.stats().clone(),
                net: opts.machine.net,
                cpu,
                sched: apps[me].clone(),
            },
            node,
            net: tx,
            replies: reply_rx,
            services: services.clone(),
            seed: opts.seed,
            fault_barrier: opts.faults.panic_barrier_for(me),
            crash_fault: opts.faults.crash_for(me),
            analyze: detector.clone(),
            journal,
        };
        let app = Arc::clone(&app);
        let task = apps[me].clone();
        let app_services = services.clone();
        app_threads.push(spawn(task_name("app", me), move || {
            task.attach();
            let dsm = P::dsm(parts);
            run_task::<P, _>(&task, &app_services, || app(&dsm))
        }));
    }
    sched.launch();

    // Join the app tasks, stop and wake the daemons instead of waiting
    // for anything, then propagate the *original* panic (not the
    // secondary "poisoned" panics it induced in peer nodes).
    let joined: Vec<std::thread::Result<R>> = app_threads.into_iter().map(|h| h.join()).collect();
    let all_ok = joined.iter().all(Result::is_ok);
    shutdown.store(true, Ordering::Release);
    for task in comms.iter().chain(persists.iter().map(|(t, _)| t)) {
        task.wake();
    }
    for h in daemon_threads {
        let joined = h.join();
        if all_ok {
            joined.expect("daemon task panicked");
        }
    }
    if !all_ok {
        resume_unwind(primary_panic(joined));
    }
    let results = joined.into_iter().flatten().collect(); // all `Ok`

    let nodes = probes
        .into_iter()
        .enumerate()
        .map(|(me, (stats, traffic, node))| {
            let summary = NodeSummary {
                me,
                time: clocks[me].now(),
                stats,
                traffic,
                sched_turns: apps[me].turns() + comms[me].turns(),
                sched_wakes: apps[me].wakes() + comms[me].wakes(),
            };
            P::node_report(summary, &node.lock())
        })
        .collect();
    let exec_time = clocks
        .iter()
        .map(SimClock::now)
        .max()
        .unwrap_or(SimInstant::ZERO);
    (
        results,
        Report {
            nodes,
            exec_time,
            seed: opts.seed,
            sched: Some(sched.summary()),
            races: detector.map(|d| d.report()),
        },
    )
}

/// Cold-start restore: re-run `app` against the state rebuilt from a
/// [`PersistStore`] (see [`PersistStore::restore`]), verifying the
/// replay barrier by barrier against the original run's journal.
///
/// Restore is an *honest re-execution*: the application restarts from
/// its beginning under the same options and deterministically repeats
/// every barrier interval, journaling into a fresh scratch store. Each
/// node's journal asserts, at every sealed barrier, that the replay
/// reproduces the original log's state digest **and** virtual clock,
/// and panics at the first divergence; barriers beyond the restored
/// checkpoint are counted in
/// [`lots_sim::NodeStats::restore_replay_barriers`]. A passing restore
/// therefore proves the rebuilt-from-log state is byte-identical to
/// the original run's at the checkpoint, and the final results and
/// reports equal the uninterrupted run's exactly.
///
/// `opts` must carry the same cluster shape and journal policy as the
/// original run; any `persist_store` in it is replaced with a fresh
/// scratch store so the original logs stay untouched.
pub fn restore<P, R, F>(
    restored: Arc<RestoredCluster>,
    mut opts: Options<P>,
    app: F,
) -> (Vec<R>, Report<P::NodeReport>)
where
    P: Protocol,
    R: Send + 'static,
    F: Fn(&P::Dsm) -> R + Send + Sync + 'static,
{
    assert!(
        opts.proto.persist().is_some(),
        "restore needs a journal policy in the options (the replay re-journals)"
    );
    assert_eq!(
        restored.nodes.len(),
        opts.n,
        "restored cluster size must match the options"
    );
    opts.persist_store = Some(PersistStore::new(opts.n));
    opts.persist_verify = Some(restored);
    run(opts, app)
}

fn spawn<T: Send + 'static>(
    name: String,
    body: impl FnOnce() -> T + Send + 'static,
) -> JoinHandle<T> {
    std::thread::Builder::new()
        .name(name)
        .spawn(body)
        .expect("spawn cluster thread")
}

/// Run a task's body and retire the task. A panic poisons the sync
/// services *before* the task retires (the dispatch in `finish` would
/// otherwise trip the deadlock detector on still-blocked peers and
/// mask the panic), then re-raises.
fn run_task<P: Protocol, T>(
    task: &SchedHandle,
    services: &P::Services,
    body: impl FnOnce() -> T,
) -> T {
    let result = catch_unwind(AssertUnwindSafe(body));
    if result.is_err() {
        P::poison(services);
    }
    task.finish();
    result.unwrap_or_else(|payload| resume_unwind(payload))
}

/// The panic a failed run re-raises: the first original one, else the
/// first "peer app thread panicked" secondary it induced.
fn primary_panic<R>(joined: Vec<std::thread::Result<R>>) -> Box<dyn Any + Send> {
    let mut errs: Vec<Box<dyn Any + Send>> = joined.into_iter().filter_map(Result::err).collect();
    let secondary = |err: &Box<dyn Any + Send>| {
        err.downcast_ref::<&'static str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .is_some_and(|msg| msg.contains("peer app thread panicked"))
    };
    let at = errs.iter().position(|e| !secondary(e)).unwrap_or(0);
    errs.swap_remove(at)
}

/// A node's persist daemon: compact the journal every `poll` of its
/// own virtual clock until shutdown.
struct Compactor<P: Protocol> {
    task: SchedHandle,
    /// The daemon's own clock, apart from the node's.
    clock: SimClock,
    node: Arc<Mutex<P::Node>>,
    journal: Arc<Mutex<NodeJournal>>,
    stats: NodeStats,
    shutdown: Arc<AtomicBool>,
    poll: SimDuration,
}

impl<P: Protocol> Compactor<P> {
    fn run(self) {
        let (task, clock) = (&self.task, &self.clock);
        task.attach();
        while !self.shutdown.load(Ordering::Acquire) {
            // Compact under the journal lock, then book the run's I/O
            // on the node's disk device at daemon time: a blocking read
            // of the folded prefix, then a write-behind put of the
            // rewritten log. The daemon sleeps through the read; demand
            // I/O and swap write-backs queue behind both.
            let out = self.journal.lock().maybe_compact();
            if let Some(out) = out {
                let now = clock.now();
                let done = P::disk(&mut self.node.lock()).map_or(now, |dq| {
                    let op = dq.read(now, out.read_bytes);
                    if out.write_bytes > 0 {
                        dq.write_batch(op.done, &[out.write_bytes]);
                    }
                    op.done
                });
                self.stats.count_compaction(out.reclaimed);
                clock.advance_to(done);
            }
            let next = SimInstant(clock.now().nanos() + self.poll.nanos());
            clock.advance_to(next);
            task.yield_until(next);
        }
        task.finish();
    }
}

/// A node's comm task: service data-plane requests, forward replies
/// to the application task.
struct CommLoop<P: Protocol> {
    node: Arc<Mutex<P::Node>>,
    net: NetSender<P::Msg>,
    rx: NetReceiver<P::Msg>,
    reply_tx: Sender<Envelope<P::Msg>>,
    shutdown: Arc<AtomicBool>,
    /// This comm task.
    task: SchedHandle,
    /// The sibling application task, woken when a reply is forwarded.
    app: SchedHandle,
}

impl<P: Protocol> CommLoop<P> {
    /// Buffer arrivals in virtual order and only service those strictly
    /// inside the current turn's horizon: anything a concurrent batch
    /// member sends arrives at or beyond the horizon, so the serviced
    /// set (and order) is independent of host thread timing. Senders
    /// wake this task with each message's arrival time.
    fn run(mut self) {
        self.task.attach();
        let mut heap: BinaryHeap<Buffered<P::Msg>> = BinaryHeap::new();
        loop {
            self.buffer(&mut heap);
            let horizon = self.task.horizon().nanos();
            while heap.peek().is_some_and(|b| b.arrival_ns() < horizon) {
                let env = heap.pop().expect("peeked").into_env();
                if !self.dispatch(env) {
                    return;
                }
                // Servicing may have replied; pick up anything that
                // landed meanwhile before deciding whether to park.
                self.buffer(&mut heap);
            }
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            match heap.peek() {
                // Future traffic buffered: runnable again at its
                // arrival — it competes in batch selection like any
                // other virtual event.
                Some(b) => self.task.yield_until(SimInstant(b.arrival_ns())),
                // Nothing pending: park at virtual infinity until a
                // sender (or the shutdown wake) wakes us.
                None => self.task.block_with(BlockReason::Idle),
            }
        }
    }

    fn buffer(&mut self, heap: &mut BinaryHeap<Buffered<P::Msg>>) {
        while let Some(env) = self.rx.try_recv() {
            heap.push(Buffered::new(env));
        }
    }

    /// Service one message; `false` means the application task is gone
    /// (shutting down) and the loop should exit.
    fn dispatch(&mut self, env: Envelope<P::Msg>) -> bool {
        let Some(reply) = P::handle(&self.node, &self.net, env) else {
            return true;
        };
        let arrival = reply.arrival;
        if self.reply_tx.send(reply).is_err() {
            return false;
        }
        self.app.wake_at(arrival);
        true
    }
}
