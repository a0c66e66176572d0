//! Emit a machine-readable `BENCH_summary.json` tracking the repo's
//! perf trajectory: the quickstart virtual time, the SOR 256×256×32
//! (p = 4) point on all three systems with its access-check counts,
//! a weak-scaling sweep (SOR + object churn at p = 4/16/64/256) with
//! its scheduler counters, the hot-object striping benchmark (one
//! 256 MB object, rotating writers + all-node readers, striped
//! p = 4/16/64 vs a single-home baseline), and the modeled §4.2
//! access-check cost (the
//! host-measured cost is printed but kept out of the JSON — it varies
//! by machine).
//!
//! ```text
//! cargo run --release -p lots-bench --bin bench_summary \
//!     [-- --check] [--engine det|par[:N]] [--out PATH] [--stable]
//! ```
//!
//! The JSON lands in the current directory (the repo root in CI) so
//! successive PRs can diff it. Under the virtual-time engine every
//! *virtual* number in the file — times, counters, scheduler
//! turns/wakes/epochs — is a pure function of the committed code
//! **regardless of `--engine`** (the conservative parallel engine is
//! byte-identical to the sequential oracle), so `--check` fails on ANY
//! drift of those. Host wall-clock seconds and `max_concurrent` are
//! informative only: their *keys* are gated, their values are not, and
//! `--stable` zeroes them so CI can `cmp` a `--engine det` output
//! against a `--engine par` one byte for byte.

use std::fmt::Write as _;
use std::time::Instant;

use lots_apps::churn::{model_checksum, ChurnParams};
use lots_apps::largeobj::{expected_sum, large_object_test, LargeObjParams};
use lots_apps::runner::{run_app, RunConfig, System};
use lots_apps::sor::SorParams;
use lots_bench::{measure, no_tweak, App};
use lots_core::{
    restore_cluster, run_cluster, ClusterOptions, Dsm, DsmApi, DsmSlice, LotsConfig, PersistConfig,
    PersistStore, SchedulerMode, SwapConfig,
};
use lots_sim::machine::{p4_fedora, pentium4_2ghz};
use lots_sim::{CrashFault, FaultPlan, Partition, SimDuration, SimInstant};

/// The quickstart example's virtual execution time in milliseconds
/// (same kernel as `examples/quickstart.rs`).
fn quickstart_ms(engine: SchedulerMode) -> f64 {
    const NODES: usize = 4;
    const LEN: usize = 1024;
    let opts =
        ClusterOptions::new(NODES, LotsConfig::small(4 << 20), p4_fedora()).with_scheduler(engine);
    let (_, report) = run_cluster(opts, |dsm| {
        let data = dsm.alloc::<i64>(LEN);
        let counter = dsm.alloc::<i64>(1);
        let per = LEN / dsm.n();
        let base = dsm.me() * per;
        for i in 0..per {
            data.write(base + i, (base + i) as i64);
        }
        dsm.barrier();
        let local = data.view(base..base + per).iter().sum::<i64>();
        dsm.with_lock(1, || counter.update(0, |v| v + local));
        dsm.barrier();
        counter.read(0)
    });
    report.exec_time.as_secs_f64() * 1e3
}

/// Swap-subsystem counters of one shrunken large-object run (Test 2 at
/// 8 MB through 1 MB arenas): virtual seconds, swaps, bytes actually
/// written/read (compressed for the tuned bundle), batched trips and
/// read-ahead hits — all deterministic, all gated by `--check`.
struct SwapPoint {
    secs: f64,
    swaps_out: u64,
    swaps_in: u64,
    out_bytes: u64,
    batches: u64,
    prefetch_hits: u64,
}

fn large_object_swap(swap: SwapConfig, engine: SchedulerMode) -> SwapPoint {
    const NODES: usize = 2;
    let params = LargeObjParams {
        rows: 64,
        row_elems: 32 * 1024, // 128 KB rows → 8 MB of shared objects
    };
    let opts = ClusterOptions::new(
        NODES,
        LotsConfig::small(1 << 20).with_swap(swap),
        p4_fedora(),
    )
    .with_scheduler(engine);
    let (results, report) = run_cluster(opts, move |dsm| {
        large_object_test(dsm, params).expect("large-object bench")
    });
    let total: i64 = results.iter().map(|r| r.sum).sum();
    assert_eq!(total, expected_sum(params), "swap corrupted the bench");
    SwapPoint {
        secs: report.exec_time.as_secs_f64(),
        swaps_out: results.iter().map(|r| r.swaps_out).sum(),
        swaps_in: results.iter().map(|r| r.swaps_in).sum(),
        out_bytes: results.iter().map(|r| r.swap_out_bytes).sum(),
        batches: results.iter().map(|r| r.swap_batches).sum(),
        prefetch_hits: results.iter().map(|r| r.prefetch_hits).sum(),
    }
}

/// Host-measured fast-path cost of one checked read (ns): this times
/// host nanoseconds, not virtual time. A single-node run never enters
/// the scheduler on a mapped read, so the engine adds nothing to the
/// timed loop.
fn host_check_ns() -> f64 {
    let opts = ClusterOptions::new(1, LotsConfig::small(1 << 20), p4_fedora());
    let (results, _) = run_cluster(opts, |dsm| {
        let a = dsm.alloc::<i64>(1024);
        a.write(0, 1);
        let reps: u64 = 1_000_000;
        let t0 = std::time::Instant::now();
        let mut sink = 0i64;
        for i in 0..reps {
            sink = sink.wrapping_add(a.read((i % 1024) as usize));
        }
        let elapsed = t0.elapsed();
        assert!(sink != i64::MIN, "keep the loop alive");
        elapsed.as_nanos() as f64 / reps as f64
    });
    results[0]
}

/// Extract the literal text of a `"key": value,`-style numeric field
/// from the committed JSON without a parser dependency.
fn committed_text(json: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\": ");
    let at = json.find(&needle)? + needle.len();
    let tail: String = json[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    (!tail.is_empty()).then_some(tail)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let stable = args.iter().any(|a| a == "--stable");
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let engine = match flag_value("--engine").as_deref() {
        None | Some("det") => SchedulerMode::Deterministic,
        Some("par") => SchedulerMode::Parallel {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        },
        Some(par_n) => {
            let workers = par_n
                .strip_prefix("par:")
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("--engine expects det|par|par:N, got {par_n}"));
            SchedulerMode::Parallel { workers }
        }
    };
    let out_path = flag_value("--out").unwrap_or_else(|| "BENCH_summary.json".to_string());
    let committed = std::fs::read_to_string("BENCH_summary.json").ok();
    let machine = p4_fedora();
    let cpu = pentium4_2ghz();
    let drifted = std::cell::Cell::new(false);
    // Virtual-time engine: the committed field must match the fresh
    // measurement *textually* — times included, whatever --engine is.
    let gate = |key: &str, fresh: &str| {
        if let Some(old) = committed.as_deref().and_then(|j| committed_text(j, key)) {
            if old != fresh {
                eprintln!("DRIFT: {key} committed {old} vs measured {fresh}");
                drifted.set(true);
            }
        }
    };
    // Informative fields (host wall-clock, dispatch concurrency): the
    // key must stay in the file, the value is free to vary by host.
    let gate_key = |key: &str| {
        if let Some(json) = committed.as_deref() {
            if committed_text(json, key).is_none() {
                eprintln!("DRIFT: informative key {key} missing from committed JSON");
                drifted.set(true);
            }
        }
    };
    // Render an informative (host-side) value: zeroed under --stable
    // so two engines' outputs can be byte-compared.
    let informative = |v: f64| {
        if stable {
            "0".to_string()
        } else {
            format!("{v:.4}")
        }
    };

    let t_quick = Instant::now();
    let quick_ms = quickstart_ms(engine);
    let quick_wall = t_quick.elapsed().as_secs_f64();
    gate("quickstart_ms", &format!("{quick_ms:.4}"));

    // SOR 256×256, 32 iterations, p = 4 — the tracked Figure 8(c)
    // point (App::run at size 256 with full=false uses 32 iterations).
    let t_sor = Instant::now();
    let mut sor = String::new();
    let mut checksums = Vec::new();
    for (key, system) in [
        ("jiajia", System::Jiajia),
        ("lots", System::Lots),
        ("lotsx", System::LotsX),
    ] {
        let pt = measure(App::Sor, system, 4, 256, machine, false, no_tweak);
        checksums.push(pt.outcome.combined.checksum);
        let secs = format!("{:.6}", pt.outcome.combined.elapsed.as_secs_f64());
        let checks = format!("{}", pt.outcome.access_checks);
        gate(&format!("{key}_s"), &secs);
        gate(&format!("{key}_access_checks"), &checks);
        let _ = write!(
            sor,
            "\n    \"{key}_s\": {secs},\n    \"{key}_access_checks\": {checks},"
        );
        println!(
            "SOR 256x256x32 p=4 {:<7} {:>7.3} s  {:>12} checks",
            system.label(),
            pt.outcome.combined.elapsed.as_secs_f64(),
            pt.outcome.access_checks
        );
    }
    assert!(
        checksums.windows(2).all(|w| w[0] == w[1]),
        "systems disagree on SOR: {checksums:?}"
    );
    let sor = sor.trim_end_matches(',').to_string();
    let sor_wall = t_sor.elapsed().as_secs_f64();

    // Large-object swap subsystem: the legacy path vs the tuned bundle
    // (segmented LRU + batched write-behind + read-ahead + compressed
    // images) on an 8× overcommitted arena.
    let t_swap = Instant::now();
    let mut swap = String::new();
    for (key, cfg) in [
        ("legacy", SwapConfig::legacy()),
        ("tuned", SwapConfig::tuned()),
    ] {
        let pt = large_object_swap(cfg, engine);
        for (field, fresh) in [
            (format!("{key}_s"), format!("{:.6}", pt.secs)),
            (format!("{key}_swaps_out"), pt.swaps_out.to_string()),
            (format!("{key}_swaps_in"), pt.swaps_in.to_string()),
            (format!("{key}_out_bytes"), pt.out_bytes.to_string()),
            (format!("{key}_batches"), pt.batches.to_string()),
            (format!("{key}_prefetch_hits"), pt.prefetch_hits.to_string()),
        ] {
            gate(&field, &fresh);
            let _ = write!(swap, "\n    \"{field}\": {fresh},");
        }
        println!(
            "large-object 8MB/1MB p=2 {key:<7} {:>7.3} s  {} out / {} in, {} B written, \
             {} trips, {} read-ahead hits",
            pt.secs, pt.swaps_out, pt.swaps_in, pt.out_bytes, pt.batches, pt.prefetch_hits
        );
    }
    let swap = swap.trim_end_matches(',').to_string();
    let swap_wall = t_swap.elapsed().as_secs_f64();

    // Object lifecycle under churn: 16 MB of cumulative allocations
    // (free/reuse, named checkpoints, cycling placements) through
    // fixed arenas on all three systems; the checksum is gated against
    // the sequential model, the lifecycle counters against drift.
    let t_churn = Instant::now();
    let mut churn = String::new();
    {
        let params = ChurnParams::smoke();
        let model = model_checksum(&params, 0);
        let mut freed = Vec::new();
        for (key, system, arena) in [
            ("lots", System::Lots, 1usize << 20),
            ("lotsx", System::LotsX, 2 << 20),
            ("jiajia", System::Jiajia, 2 << 20),
        ] {
            let mut cfg = RunConfig::new(system, 4, machine);
            cfg.dmm_bytes = arena;
            cfg.shared_bytes = 2 << 20;
            cfg.scheduler = engine;
            let out = run_app(&cfg, params);
            for r in &out.per_node {
                assert_eq!(r.checksum, model, "{key}: churn checksum vs model");
            }
            freed.push(out.objects_freed);
            let mut fields = vec![(
                format!("{key}_churn_s"),
                format!("{:.6}", out.combined.elapsed.as_secs_f64()),
            )];
            if system == System::Lots {
                fields.push(("lots_churn_swaps_out".into(), out.swaps_out.to_string()));
                fields.push(("lots_churn_slots".into(), out.object_slots_max.to_string()));
                fields.push((
                    "lots_churn_frag_permille".into(),
                    out.frag_permille_max.to_string(),
                ));
            }
            for (field, fresh) in fields {
                gate(&field, &fresh);
                let _ = write!(churn, "\n    \"{field}\": {fresh},");
            }
            println!(
                "object churn p=4 {:<7} {:>7.3} s  {} frees/node, checksum OK",
                system.label(),
                out.combined.elapsed.as_secs_f64(),
                out.objects_freed / 4,
            );
        }
        assert!(
            freed.windows(2).all(|w| w[0] == w[1]),
            "systems disagree on reclaimed objects: {freed:?}"
        );
        for (field, fresh) in [
            ("churn_checksum".to_string(), model.to_string()),
            (
                "churn_cumulative_bytes".to_string(),
                params.cumulative_bytes().to_string(),
            ),
            ("churn_reclaim_events".to_string(), freed[0].to_string()),
        ] {
            gate(&field, &fresh);
            let _ = write!(churn, "\n    \"{field}\": {fresh},");
        }
    }
    let churn = churn.trim_end_matches(',').to_string();
    let churn_wall = t_churn.elapsed().as_secs_f64();

    // Lossy network + crash-rejoin: the same churn program under a
    // seeded drop/dup/reorder plan, a scheduled minority partition and
    // one crash-rejoin. The checksum is gated against the identical
    // sequential model as the fault-free run (loss must be invisible
    // to applications); the recovery counters are gated so the
    // reliable layer's behavior cannot drift silently.
    let t_lossy = Instant::now();
    let mut lossy = String::new();
    {
        let params = ChurnParams::smoke();
        let model = model_checksum(&params, 0);
        let mut cfg = RunConfig::new(System::Lots, 4, machine);
        cfg.dmm_bytes = 1 << 20;
        cfg.scheduler = engine;
        cfg.faults = FaultPlan {
            seed: 42,
            loss_permille: 15,
            dup_permille: 10,
            reorder_permille: 20,
            partitions: vec![Partition {
                start: SimInstant(1_000_000),
                end: SimInstant(5_000_000),
                islanders: vec![3],
            }],
            crash_node: Some(CrashFault {
                node: 2,
                at_barrier: 2,
                reboot: SimDuration::from_millis(20),
            }),
            ..FaultPlan::none()
        };
        let out = run_app(&cfg, params);
        for r in &out.per_node {
            assert_eq!(
                r.checksum, model,
                "lossy churn checksum vs fault-free model"
            );
        }
        assert_eq!(
            out.msgs_dropped, 0,
            "reliable layer must recover every loss"
        );
        assert!(out.msgs_retransmitted > 0, "the plan must exercise loss");
        for (field, fresh) in [
            (
                "lossy_churn_s",
                format!("{:.6}", out.combined.elapsed.as_secs_f64()),
            ),
            ("lossy_retransmits", out.msgs_retransmitted.to_string()),
            ("lossy_dups_filtered", out.dups_filtered.to_string()),
            ("lossy_rejoin_rounds", out.rejoin_rounds.to_string()),
            ("lossy_rejoin_bytes", out.rejoin_bytes.to_string()),
            // The rejoin split: persistence is off here, so every byte
            // of the master rebuild comes from peers.
            ("lossy_rejoin_log_bytes", out.rejoin_log_bytes.to_string()),
            ("lossy_rejoin_peer_bytes", out.rejoin_peer_bytes.to_string()),
        ] {
            gate(field, &fresh);
            let _ = write!(lossy, "\n    \"{field}\": {fresh},");
        }
        println!(
            "lossy churn p=4 LOTS    {:>7.3} s  {} retransmits, {} dups filtered, \
             {} rejoin ({} B), checksum OK",
            out.combined.elapsed.as_secs_f64(),
            out.msgs_retransmitted,
            out.dups_filtered,
            out.rejoin_rounds,
            out.rejoin_bytes
        );
    }
    let lossy = lossy.trim_end_matches(',').to_string();
    let lossy_wall = t_lossy.elapsed().as_secs_f64();

    // Persistence: the churn program journaling every barrier interval
    // (EveryNBarriers(4) checkpoints, background compaction) with one
    // crash-rejoin that rebuilds masters from the node's own journal.
    // A cold-start restore of the run's journals is then replayed and
    // must reproduce the answers and virtual time exactly; every
    // journal counter is virtual-deterministic and gated.
    let t_persist = Instant::now();
    let mut persist = String::new();
    {
        use std::sync::Arc;

        use lots_apps::churn::run_churn;
        let params = ChurnParams::smoke();
        let model = model_checksum(&params, 0);
        let kernel = move |dsm: &Dsm| run_churn(dsm, &params).checksum;
        let faults = FaultPlan {
            crash_node: Some(CrashFault {
                node: 1,
                at_barrier: 6,
                reboot: SimDuration::from_millis(20),
            }),
            ..FaultPlan::none()
        };
        let mk_opts = |f: FaultPlan| {
            ClusterOptions::new(
                4,
                LotsConfig::small(1 << 20).with_persist(PersistConfig::every(4)),
                machine,
            )
            .with_scheduler(engine)
            .with_faults(f)
        };
        let store = PersistStore::new(4);
        let (r1, rep1) = run_cluster(
            mk_opts(faults.clone()).with_persist_store(store.clone()),
            kernel,
        );
        for (node, c) in r1.iter().enumerate() {
            assert_eq!(*c, model, "persist churn node {node} checksum vs model");
        }
        let log_records: u64 = rep1.nodes.iter().map(|n| n.stats.log_records()).sum();
        let log_bytes: u64 = rep1
            .nodes
            .iter()
            .map(|n| n.stats.log_bytes_appended())
            .sum();
        let ckpt_bytes: u64 = rep1.nodes.iter().map(|n| n.stats.checkpoint_bytes()).sum();
        let compactions: u64 = rep1.nodes.iter().map(|n| n.stats.compaction_runs()).sum();
        let reclaimed: u64 = rep1
            .nodes
            .iter()
            .map(|n| n.stats.compaction_bytes_reclaimed())
            .sum();
        let rejoin_log: u64 = rep1.nodes.iter().map(|n| n.stats.rejoin_log_bytes()).sum();
        let rejoin_peer: u64 = rep1.nodes.iter().map(|n| n.stats.rejoin_peer_bytes()).sum();
        assert!(log_records > 0 && ckpt_bytes > 0, "the journal must run");
        assert!(
            rejoin_log > 0,
            "the rejoin must rebuild masters from its own journal"
        );
        let restored = store.restore().expect("bench journals restore");
        let checkpoint_seq = restored.checkpoint_seq;
        let (r2, rep2) = restore_cluster(Arc::new(restored), mk_opts(faults), kernel);
        assert_eq!(r1, r2, "restore replay answers diverged");
        assert_eq!(
            rep1.exec_time, rep2.exec_time,
            "restore replay virtual time diverged"
        );
        let replayed: u64 = rep2
            .nodes
            .iter()
            .map(|n| n.stats.restore_replay_barriers())
            .sum();
        for (field, fresh) in [
            (
                "persist_churn_s",
                format!("{:.6}", rep1.exec_time.as_secs_f64()),
            ),
            ("persist_log_records", log_records.to_string()),
            ("persist_log_bytes", log_bytes.to_string()),
            ("persist_checkpoint_bytes", ckpt_bytes.to_string()),
            ("persist_compaction_runs", compactions.to_string()),
            ("persist_compaction_reclaimed_bytes", reclaimed.to_string()),
            ("persist_rejoin_log_bytes", rejoin_log.to_string()),
            ("persist_rejoin_peer_bytes", rejoin_peer.to_string()),
            ("persist_checkpoint_seq", checkpoint_seq.to_string()),
            ("persist_replay_barriers", replayed.to_string()),
        ] {
            gate(field, &fresh);
            let _ = write!(persist, "\n    \"{field}\": {fresh},");
        }
        println!(
            "persist churn p=4 LOTS  {:>7.3} s  {} records / {} B journaled, \
             {} compactions ({} B reclaimed), rejoin {} B log + {} B peers, \
             restore at {} replayed {} intervals bit-identically",
            rep1.exec_time.as_secs_f64(),
            log_records,
            log_bytes,
            compactions,
            reclaimed,
            rejoin_log,
            rejoin_peer,
            checkpoint_seq,
            replayed
        );
    }
    let persist = persist.trim_end_matches(',').to_string();
    let persist_wall = t_persist.elapsed().as_secs_f64();

    // Weak scaling under the engine: SOR with two rows per node and a
    // fixed-shape churn program at p = 4/16/64/256. Virtual seconds
    // and the scheduler's turns/wakes/epochs are engine-invariant and
    // gated; host wall seconds and max_concurrent are informative.
    let t_weak = Instant::now();
    let mut weak = String::new();
    for p in [4usize, 16, 64, 256] {
        let sor_params = SorParams { n: 2 * p, iters: 2 };
        let churn_params = ChurnParams {
            phases: 4,
            objs_per_phase: 1,
            elems: 1024,
            retain: 1,
            ckpt_elems: 16,
        };
        for (wl, run) in [
            ("sor", {
                let mut cfg = RunConfig::new(System::Lots, p, machine);
                cfg.dmm_bytes = 4 << 20;
                cfg.scheduler = engine;
                let t0 = Instant::now();
                let out = run_app(&cfg, sor_params);
                (out, t0.elapsed().as_secs_f64())
            }),
            ("churn", {
                let mut cfg = RunConfig::new(System::Lots, p, machine);
                cfg.dmm_bytes = 4 << 20;
                cfg.scheduler = engine;
                let t0 = Instant::now();
                let out = run_app(&cfg, churn_params);
                (out, t0.elapsed().as_secs_f64())
            }),
        ] {
            let (out, wall) = run;
            let sched = out.sched.as_ref().expect("every run records counters");
            for (field, fresh) in [
                (
                    format!("{wl}_p{p}_s"),
                    format!("{:.6}", out.exec_time.as_secs_f64()),
                ),
                (format!("{wl}_p{p}_turns"), sched.turns.to_string()),
                (format!("{wl}_p{p}_wakes"), sched.wakes.to_string()),
                (format!("{wl}_p{p}_epochs"), sched.epochs.to_string()),
            ] {
                gate(&field, &fresh);
                let _ = write!(weak, "\n    \"{field}\": {fresh},");
            }
            for (field, fresh) in [
                (
                    format!("{wl}_p{p}_max_concurrent"),
                    if stable {
                        "0".to_string()
                    } else {
                        sched.max_concurrent.to_string()
                    },
                ),
                (format!("{wl}_p{p}_host_wall_s"), informative(wall)),
            ] {
                gate_key(&field);
                let _ = write!(weak, "\n    \"{field}\": {fresh},");
            }
            println!(
                "weak scaling {wl:<5} p={p:<3} {:>9.3} virtual s  {:>7.2} host s  \
                 {} turns / {} wakes / {} epochs",
                out.exec_time.as_secs_f64(),
                wall,
                sched.turns,
                sched.wakes,
                sched.epochs
            );
        }
    }
    let weak = weak.trim_end_matches(',').to_string();
    let weak_wall = t_weak.elapsed().as_secs_f64();

    // Hot object: one 256 MB named object, every node bulk-reading a
    // rotating chunk while a rotating writer rewrites its own — the
    // single-home bottleneck benchmark. Striped (4 MB segments,
    // per-segment homes settled by the init writes) at p = 4/16/64
    // against the single-home baseline (all segments Fixed(0), home
    // migration off) at p = 16. Aggregate read MB/s is virtual bytes
    // over virtual seconds — deterministic, gated. Checksums on every
    // run must match the sequential visibility model.
    let t_hot = Instant::now();
    let mut hot = String::new();
    {
        use lots_apps::hotobj::{model_node_checksum, HotParams};
        use lots_core::{Placement, Striping};
        let params = HotParams::bench();
        let run_hot = |p: usize, single_home: bool| {
            let mut cfg = RunConfig::new(System::Lots, p, machine);
            cfg.dmm_bytes = 448 << 20;
            cfg.scheduler = engine;
            cfg.lots_tweak = if single_home {
                |c: &mut LotsConfig| {
                    c.striping = Some(Striping {
                        segment_bytes: 4 << 20,
                        placement: Placement::Fixed(0),
                    });
                    c.home_migration = false;
                }
            } else {
                |c: &mut LotsConfig| {
                    c.striping = Some(Striping::segments_of(4 << 20));
                }
            };
            let out = run_app(
                &cfg,
                HotParams {
                    single_home,
                    ..params
                },
            );
            for (me, r) in out.per_node.iter().enumerate() {
                assert_eq!(
                    r.checksum,
                    model_node_checksum(&params, cfg.seed, p, me),
                    "hot_object p={p} single_home={single_home}: node {me} checksum vs model"
                );
            }
            let mbps = params.read_bytes() as f64 / out.combined.elapsed.as_secs_f64() / 1e6;
            (out, mbps)
        };
        let mut striped_mbps = Vec::new();
        for p in [4usize, 16, 64] {
            let (out, mbps) = run_hot(p, false);
            assert!(out.versions_published > 0, "p={p}: no versions published");
            assert!(out.versions_reclaimed > 0, "p={p}: no versions reclaimed");
            striped_mbps.push(mbps);
            for (field, fresh) in [
                (
                    format!("hot_p{p}_s"),
                    format!("{:.6}", out.combined.elapsed.as_secs_f64()),
                ),
                (format!("hot_p{p}_read_mbps"), format!("{mbps:.3}")),
                (
                    format!("hot_p{p}_home_ratio_permille"),
                    out.home_load_ratio_permille.to_string(),
                ),
                (
                    format!("hot_p{p}_versions_published"),
                    out.versions_published.to_string(),
                ),
                (
                    format!("hot_p{p}_versions_reclaimed"),
                    out.versions_reclaimed.to_string(),
                ),
            ] {
                gate(&field, &fresh);
                let _ = write!(hot, "\n    \"{field}\": {fresh},");
            }
            println!(
                "hot object 256MB striped  p={p:<3} {:>8.3} s  {:>9.1} MB/s read  \
                 home ratio {} permille, {} versions published / {} reclaimed",
                out.combined.elapsed.as_secs_f64(),
                mbps,
                out.home_load_ratio_permille,
                out.versions_published,
                out.versions_reclaimed
            );
        }
        let (base, base_mbps) = run_hot(16, true);
        for (field, fresh) in [
            (
                "hot_single16_s".to_string(),
                format!("{:.6}", base.combined.elapsed.as_secs_f64()),
            ),
            (
                "hot_single16_read_mbps".to_string(),
                format!("{base_mbps:.3}"),
            ),
            (
                "hot_single16_home_ratio_permille".to_string(),
                base.home_load_ratio_permille.to_string(),
            ),
        ] {
            gate(&field, &fresh);
            let _ = write!(hot, "\n    \"{field}\": {fresh},");
        }
        println!(
            "hot object 256MB 1-home   p=16  {:>8.3} s  {:>9.1} MB/s read  \
             home ratio {} permille",
            base.combined.elapsed.as_secs_f64(),
            base_mbps,
            base.home_load_ratio_permille
        );
        // The tentpole's acceptance bars: striping beats the single
        // home ≥ 3× at p = 16 and read throughput keeps climbing with
        // the node count.
        assert!(
            striped_mbps[1] >= 3.0 * base_mbps,
            "striping too slow: {:.1} MB/s vs 3x single-home {base_mbps:.1} MB/s",
            striped_mbps[1]
        );
        assert!(
            striped_mbps.windows(2).all(|w| w[1] > w[0]),
            "read throughput must scale with p: {striped_mbps:?}"
        );
    }
    let hot = hot.trim_end_matches(',').to_string();
    let hot_wall = t_hot.elapsed().as_secs_f64();

    // Host wall-clock per section: keys gated, values informative
    // (zeroed under --stable).
    let mut wall = String::new();
    for (field, secs) in [
        ("quickstart_host_wall_s", quick_wall),
        ("sor_host_wall_s", sor_wall),
        ("swap_host_wall_s", swap_wall),
        ("churn_host_wall_s", churn_wall),
        ("lossy_net_host_wall_s", lossy_wall),
        ("persistence_host_wall_s", persist_wall),
        ("weak_scaling_host_wall_s", weak_wall),
        ("hot_object_host_wall_s", hot_wall),
    ] {
        gate_key(field);
        let _ = write!(wall, "\n    \"{field}\": {},", informative(secs));
    }
    let wall = wall.trim_end_matches(',').to_string();

    // Every gated number in the JSON is virtual/modeled and — under
    // the virtual-time engine, sequential or parallel — exactly
    // reproducible, so CI gates the whole file. The host-measured
    // check cost varies by machine, so it goes to stdout only.
    let json = format!(
        "{{\n  \"quickstart_ms\": {quick_ms:.4},\n  \"sor_256_p4\": {{{sor}\n  }},\n  \
         \"large_object_swap\": {{{swap}\n  }},\n  \
         \"object_churn\": {{{churn}\n  }},\n  \
         \"lossy_net\": {{{lossy}\n  }},\n  \
         \"persistence\": {{{persist}\n  }},\n  \
         \"weak_scaling\": {{{weak}\n  }},\n  \
         \"hot_object\": {{{hot}\n  }},\n  \
         \"host_wall\": {{{wall}\n  }},\n  \
         \"access_check_ns\": {{\n    \"modeled\": {},\n    \"modeled_pin\": {}\n  }}\n}}\n",
        cpu.access_check.0, cpu.pin_update.0
    );
    if check && drifted.get() {
        eprintln!(
            "virtual times or counters drifted from the committed \
             BENCH_summary.json — under the virtual-time engine that means the \
             execution or cost model changed; regenerate with \
             `cargo run --release -p lots-bench --bin bench_summary`"
        );
        std::process::exit(1);
    }
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    let host_ns = host_check_ns();
    println!("quickstart {quick_ms:.2} ms; host check {host_ns:.1} ns/read (host-dependent, not in JSON)");
    println!("wrote {out_path}");
}
