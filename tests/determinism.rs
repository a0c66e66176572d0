//! PR 3/PR 6 acceptance: the virtual-time engine makes whole cluster
//! runs bit-reproducible — and the conservative parallel engine is
//! byte-identical to the sequential oracle.
//!
//! * Same seed ⇒ byte-identical reports (clocks, stats, traffic) on
//!   all three systems (LOTS, LOTS-x, JIAJIA), for SOR and RX.
//! * `Parallel { workers }` reproduces the `Deterministic` oracle's
//!   fingerprint exactly on SOR, RX and object churn — including the
//!   deterministic scheduler counters (turns/wakes/epochs).
//! * Seeds actually steer the seeded workloads' data end to end.
//! * Random `FaultPlan` message delays, CPU slowdowns and barrier
//!   panics perturb every engine *identically* — property-tested
//!   across `Deterministic`, `Parallel{1}` and `Parallel{N}`.
//! * A seeded lock-order deadlock panics (never hangs) under both
//!   engines, with the same virtual-time snapshot headline.
//! * p = 16 and p = 256 smoke runs are deterministic (the CI jobs;
//!   `--ignored` locally to keep the default suite snappy).

use lots::apps::runner::{run_app, RunConfig, RunOutcome, System};
use lots::apps::{churn::ChurnParams, rx::RxParams, sor::SorParams};
use lots::core::{run_cluster, ClusterOptions, ClusterReport, DsmApi, DsmSlice, LotsConfig};
use lots::sim::machine::p4_fedora;
use lots::sim::{FaultPlan, PanicFault, SchedulerMode, SimDuration, TimeCategory, ALL_CATEGORIES};
use proptest::prelude::*;

const SOR_SMALL: SorParams = SorParams { n: 64, iters: 8 };
const RX_SMALL: RxParams = RxParams {
    total: 1 << 12,
    passes: 2,
    seed: 20040920,
};

/// Every observable number in a [`RunOutcome`], serialized. Two runs
/// are "byte-identical" iff these strings match.
fn outcome_fingerprint(o: &RunOutcome) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = write!(
        s,
        "chk={} t={} exec={} bytes={} msgs={} checks={} faults={} so={} si={}",
        o.combined.checksum,
        o.combined.elapsed.nanos(),
        o.exec_time.nanos(),
        o.bytes_sent,
        o.msgs_sent,
        o.access_checks,
        o.page_faults,
        o.swaps_out,
        o.swaps_in,
    );
    for (label, d) in [
        ("chk", o.time_access_check),
        ("lob", o.time_large_object),
        ("net", o.time_network),
        ("syn", o.time_sync),
        ("dsk", o.time_disk),
        ("cmp", o.time_compute),
    ] {
        let _ = write!(s, " {label}={}", d.nanos());
    }
    for (i, n) in o.per_node.iter().enumerate() {
        let _ = write!(s, " n{i}=({},{})", n.checksum, n.elapsed.nanos());
    }
    // Scheduler counters: turns/wakes/epochs are pure functions of the
    // simulated schedule and must agree across engines. The host-side
    // fields (max_concurrent, worker busy time) are deliberately
    // excluded — they describe host execution, not the simulation.
    if let Some(sched) = &o.sched {
        let _ = write!(
            s,
            " sched=({},{},{})",
            sched.turns, sched.wakes, sched.epochs
        );
    }
    s
}

/// Every observable number in a LOTS [`ClusterReport`], serialized.
fn report_fingerprint(r: &ClusterReport) -> String {
    use std::fmt::Write as _;
    let mut s = format!("seed={} exec={}", r.seed, r.exec_time.nanos());
    for nd in &r.nodes {
        let _ = write!(
            s,
            " [{} t={} chk={} sw={}/{} obj={} swap={} tx={}/{} rx={}/{}",
            nd.me,
            nd.time.nanos(),
            nd.stats.access_checks(),
            nd.stats.swaps_out(),
            nd.stats.swaps_in(),
            nd.object_bytes,
            nd.swapped_bytes,
            nd.traffic.msgs_sent(),
            nd.traffic.bytes_sent(),
            nd.traffic.msgs_received(),
            nd.traffic.bytes_received(),
        );
        for cat in ALL_CATEGORIES {
            let _ = write!(s, " {}={}", cat.name(), nd.stats.time_in(cat).nanos());
        }
        s.push(']');
    }
    s
}

fn cfg(system: System, n: usize, seed: u64) -> RunConfig {
    let mut c = RunConfig::new(system, n, p4_fedora());
    c.seed = seed;
    c
}

#[test]
fn sor_same_seed_is_byte_identical_on_all_three_systems() {
    for system in [System::Lots, System::LotsX, System::Jiajia] {
        let a = outcome_fingerprint(&run_app(&cfg(system, 4, 42), SOR_SMALL));
        let b = outcome_fingerprint(&run_app(&cfg(system, 4, 42), SOR_SMALL));
        assert_eq!(a, b, "SOR drifted between same-seed runs on {system:?}");
    }
}

#[test]
fn rx_same_seed_is_byte_identical_on_all_three_systems() {
    for system in [System::Lots, System::LotsX, System::Jiajia] {
        let a = outcome_fingerprint(&run_app(&cfg(system, 4, 42), RX_SMALL));
        let b = outcome_fingerprint(&run_app(&cfg(system, 4, 42), RX_SMALL));
        assert_eq!(a, b, "RX drifted between same-seed runs on {system:?}");
    }
}

#[test]
fn cluster_report_is_byte_identical_including_swap_pressure() {
    // Tiny DMM: the swap machinery engages, and its disk timing must
    // reproduce too.
    let run = || {
        let opts = ClusterOptions::new(2, LotsConfig::small(48 * 1024), p4_fedora()).with_seed(7);
        let (sums, report) = run_cluster(opts, |dsm| {
            let a = dsm.alloc::<i64>(2048);
            let b = dsm.alloc::<i64>(2048);
            let per = 2048 / dsm.n();
            let base = dsm.me() * per;
            for i in 0..per {
                a.write(base + i, (base + i) as i64);
            }
            dsm.barrier();
            let mut sum = 0i64;
            for i in 0..2048 {
                sum += a.read(i);
                if i % 512 == 0 {
                    b.write(i, sum); // ping-pong between objects
                }
            }
            dsm.barrier();
            sum
        });
        (sums, report_fingerprint(&report))
    };
    let (s1, f1) = run();
    let (s2, f2) = run();
    assert_eq!(s1, s2);
    assert_eq!(f1, f2, "swap-pressure run must reproduce exactly");
}

#[test]
fn seed_steers_workload_data_end_to_end() {
    let a = run_app(&cfg(System::Lots, 2, 1), RX_SMALL);
    let b = run_app(&cfg(System::Lots, 2, 2), RX_SMALL);
    let c = run_app(&cfg(System::Lots, 2, 1), RX_SMALL);
    assert_ne!(
        a.combined.checksum, b.combined.checksum,
        "different seeds must sort different key sets"
    );
    assert_eq!(a.combined.checksum, c.combined.checksum);
}

#[test]
fn report_surfaces_the_seed() {
    let opts = ClusterOptions::new(1, LotsConfig::small(1 << 20), p4_fedora()).with_seed(31337);
    let (seeds, report) = run_cluster(opts, |dsm| dsm.seed());
    assert_eq!(seeds, vec![31337]);
    assert_eq!(report.seed, 31337);
}

#[test]
#[should_panic(expected = "fault injection: node 1 killed entering barrier 2")]
fn injected_panic_rides_the_poisoning_path() {
    let opts =
        ClusterOptions::new(4, LotsConfig::small(1 << 20), p4_fedora()).with_faults(FaultPlan {
            panic_node: Some(PanicFault {
                node: 1,
                at_barrier: 2,
            }),
            ..FaultPlan::none()
        });
    let _ = run_cluster(opts, |dsm| {
        let a = dsm.alloc::<i64>(64);
        a.write(dsm.me(), 1);
        dsm.barrier(); // survives
        a.write(dsm.me() + 4, 2);
        dsm.barrier(); // node 1 dies here; peers must not hang
        a.read(0)
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random message jitter and a random straggler never change what
    /// the application computes — only when.
    #[test]
    fn fault_delays_never_change_results(
        fault_seed in any::<u64>(),
        delay_us in 1u64..400,
        slow_node in 0usize..4,
        slow_pct in 0u64..150,
    ) {
        let baseline = run_app(&cfg(System::Lots, 4, 9), RX_SMALL);
        let mut faulted = cfg(System::Lots, 4, 9);
        faulted.faults = FaultPlan {
            seed: fault_seed,
            max_msg_delay: SimDuration::from_micros(delay_us),
            cpu_slowdown: vec![(slow_node, 1.0 + slow_pct as f64 / 100.0)],
            ..FaultPlan::none()
        };
        let perturbed = run_app(&faulted, RX_SMALL);
        prop_assert_eq!(baseline.combined.checksum, perturbed.combined.checksum);
        prop_assert_eq!(baseline.access_checks, perturbed.access_checks);
        // And the perturbed run itself must still be reproducible.
        let again = run_app(&faulted, RX_SMALL);
        prop_assert_eq!(outcome_fingerprint(&perturbed), outcome_fingerprint(&again));
    }
}

/// The CI smoke job: a p = 16 SOR run (32 app + comm threads on the
/// turnstile) completes and reproduces exactly. `--ignored` locally.
#[test]
#[ignore = "CI smoke job: run explicitly with --ignored"]
fn p16_sor_determinism_smoke() {
    let a = run_app(&cfg(System::Lots, 16, 2004), SorParams { n: 128, iters: 8 });
    let b = run_app(&cfg(System::Lots, 16, 2004), SorParams { n: 128, iters: 8 });
    assert_eq!(
        outcome_fingerprint(&a),
        outcome_fingerprint(&b),
        "p=16 SOR drifted between same-seed runs"
    );
    assert!(a.exec_time.nanos() > 0);
    // Sync-wait must be recorded: 16 nodes really rendezvoused.
    assert!(a.time_sync > SimDuration::ZERO);
}

// ---------------------------------------------------------------------
// PR 6: the conservative parallel engine vs. the sequential oracle.
// ---------------------------------------------------------------------

/// The engine matrix every parallel test sweeps: the sequential oracle,
/// a one-worker parallel engine (same epochs, degenerate concurrency)
/// and a genuinely concurrent pool.
const ENGINES: [SchedulerMode; 3] = [
    SchedulerMode::Deterministic,
    SchedulerMode::Parallel { workers: 1 },
    SchedulerMode::Parallel { workers: 4 },
];

fn cfg_with(system: System, n: usize, seed: u64, mode: SchedulerMode) -> RunConfig {
    let mut c = cfg(system, n, seed);
    c.scheduler = mode;
    c
}

/// A churn configuration small enough for the default suite.
const CHURN_SMALL: ChurnParams = ChurnParams {
    phases: 6,
    objs_per_phase: 2,
    elems: 2048,
    retain: 1,
    ckpt_elems: 16,
};

#[test]
fn parallel_engine_matches_sequential_oracle_on_sor() {
    let oracle = outcome_fingerprint(&run_app(
        &cfg_with(System::Lots, 4, 42, SchedulerMode::Deterministic),
        SOR_SMALL,
    ));
    for mode in ENGINES {
        let got = outcome_fingerprint(&run_app(&cfg_with(System::Lots, 4, 42, mode), SOR_SMALL));
        assert_eq!(got, oracle, "SOR diverged from the oracle under {mode:?}");
    }
}

#[test]
fn parallel_engine_matches_sequential_oracle_on_rx() {
    let oracle = outcome_fingerprint(&run_app(
        &cfg_with(System::Lots, 4, 42, SchedulerMode::Deterministic),
        RX_SMALL,
    ));
    for mode in ENGINES {
        let got = outcome_fingerprint(&run_app(&cfg_with(System::Lots, 4, 42, mode), RX_SMALL));
        assert_eq!(got, oracle, "RX diverged from the oracle under {mode:?}");
    }
}

#[test]
fn parallel_engine_matches_sequential_oracle_on_object_churn() {
    let oracle = outcome_fingerprint(&run_app(
        &cfg_with(System::Lots, 4, 42, SchedulerMode::Deterministic),
        CHURN_SMALL,
    ));
    for mode in ENGINES {
        let got = outcome_fingerprint(&run_app(&cfg_with(System::Lots, 4, 42, mode), CHURN_SMALL));
        assert_eq!(got, oracle, "churn diverged from the oracle under {mode:?}");
    }
}

#[test]
fn parallel_engine_matches_oracle_on_jiajia_too() {
    let oracle = outcome_fingerprint(&run_app(
        &cfg_with(System::Jiajia, 4, 42, SchedulerMode::Deterministic),
        SOR_SMALL,
    ));
    for mode in ENGINES {
        let got = outcome_fingerprint(&run_app(&cfg_with(System::Jiajia, 4, 42, mode), SOR_SMALL));
        assert_eq!(
            got, oracle,
            "JIAJIA SOR diverged from oracle under {mode:?}"
        );
    }
}

/// Run an app, capturing either its fingerprint or its panic message —
/// faults that kill a node must kill it *identically* on every engine.
fn fingerprint_or_panic(cfg: &RunConfig, prog: impl lots::apps::adapter::DsmProgram) -> String {
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        outcome_fingerprint(&run_app(cfg, prog))
    }));
    match res {
        Ok(fp) => format!("ok:{fp}"),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&'static str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic".to_string());
            format!("panic:{msg}")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random fault plans — message jitter, a straggler node, and an
    /// optional barrier kill — produce byte-identical outcomes (or
    /// byte-identical panics) across the sequential oracle and both
    /// parallel pool widths, on all three committed workload shapes.
    #[test]
    fn random_faults_are_engine_invariant(
        fault_seed in any::<u64>(),
        delay_us in 0u64..400,
        slow_node in 0usize..4,
        slow_pct in 0u64..150,
        kill_roll in 0u64..10,
        kill_node in 0usize..4,
        kill_barrier in 1u64..3,
    ) {
        // ~30% of cases also kill a node at a barrier.
        let kill = (kill_roll < 3).then_some((kill_node, kill_barrier));
        let faults = FaultPlan {
            seed: fault_seed,
            max_msg_delay: SimDuration::from_micros(delay_us),
            cpu_slowdown: vec![(slow_node, 1.0 + slow_pct as f64 / 100.0)],
            panic_node: kill.map(|(node, at_barrier)| PanicFault { node, at_barrier }),
            ..FaultPlan::none()
        };
        for (label, prog) in [("sor", Ok(SOR_SMALL)), ("rx", Err(RX_SMALL))] {
            let run = |mode: SchedulerMode| {
                let mut c = cfg_with(System::Lots, 4, 9, mode);
                c.faults = faults.clone();
                match prog {
                    Ok(p) => fingerprint_or_panic(&c, p),
                    Err(p) => fingerprint_or_panic(&c, p),
                }
            };
            let oracle = run(SchedulerMode::Deterministic);
            for mode in ENGINES {
                prop_assert_eq!(
                    run(mode),
                    oracle.clone(),
                    "{} fault outcome diverged under {:?}",
                    label,
                    mode
                );
            }
        }
    }
}

/// Satellite (b): a seeded lock-order deadlock (AB–BA across two nodes)
/// must panic with the engine's virtual-time snapshot — never hang —
/// and do so under both the sequential oracle and the parallel pool.
#[test]
fn seeded_deadlock_panics_identically_under_both_engines() {
    let deadlock = |mode: SchedulerMode| {
        let opts =
            ClusterOptions::new(2, LotsConfig::small(1 << 20), p4_fedora()).with_scheduler(mode);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_cluster(opts, |dsm| {
                let a = dsm.alloc::<i64>(64);
                let (first, second) = if dsm.me() == 0 { (1, 2) } else { (2, 1) };
                dsm.lock(first);
                // Force real lock overlap: both nodes hold their first
                // lock across a data exchange before requesting the
                // other's — the classic AB-BA cycle.
                a.write(dsm.me(), 1);
                let _ = a.read(1 - dsm.me());
                dsm.lock(second);
                dsm.unlock(second);
                dsm.unlock(first);
            })
        }));
        let payload = res.expect_err("AB-BA deadlock must panic, not hang");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| {
                payload
                    .downcast_ref::<&'static str>()
                    .map(|s| s.to_string())
            })
            .expect("panic payload should be a string")
    };
    let seq = deadlock(SchedulerMode::Deterministic);
    let par = deadlock(SchedulerMode::Parallel { workers: 2 });
    // Which thread's deadlock panic wins the propagation race varies
    // (detector vs. parked task), but every one of them carries the
    // virtual-time deadlock headline — the reason-annotated snapshot
    // itself is unit-tested in `lots_sim::sched`.
    assert!(
        seq.contains("virtual-time deadlock"),
        "sequential engine must name the deadlock: {seq}"
    );
    assert!(
        par.contains("virtual-time deadlock"),
        "parallel engine must name the deadlock: {par}"
    );
}

/// The p = 256 weak-scaling smoke (CI: `--ignored`): SOR and object
/// churn complete in seconds under the parallel pool, and the parallel
/// fingerprint equals the sequential oracle's at full scale.
#[test]
#[ignore = "CI weak-scaling job: run explicitly with --ignored"]
fn p256_parallel_matches_oracle_smoke() {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let sor = SorParams { n: 512, iters: 2 };
    let churn = ChurnParams {
        phases: 4,
        objs_per_phase: 1,
        elems: 1024,
        retain: 1,
        ckpt_elems: 16,
    };
    let mut cseq = cfg_with(System::Lots, 256, 2004, SchedulerMode::Deterministic);
    let mut cpar = cfg_with(System::Lots, 256, 2004, SchedulerMode::Parallel { workers });
    cseq.dmm_bytes = 4 << 20;
    cpar.dmm_bytes = 4 << 20;
    let a = outcome_fingerprint(&run_app(&cseq, sor));
    let b = outcome_fingerprint(&run_app(&cpar, sor));
    assert_eq!(a, b, "p=256 SOR: parallel diverged from the oracle");
    let a = outcome_fingerprint(&run_app(&cseq, churn));
    let b = outcome_fingerprint(&run_app(&cpar, churn));
    assert_eq!(a, b, "p=256 churn: parallel diverged from the oracle");
}

#[test]
fn deterministic_sync_wait_is_attributed() {
    // Sanity: the engine charges SyncWait analytically, not by
    // wall clock.
    let out = run_app(&cfg(System::Lots, 4, 0), SOR_SMALL);
    assert!(out.time_sync > SimDuration::ZERO);
    let _ = TimeCategory::SyncWait; // category stays public API
}
