//! The repository benchmark's program side: one instance of one
//! workload per call of [`run_instance`], measured from outside the
//! DSM through its public entry points (`run_cluster`,
//! `run_jiajia_cluster`, the `DsmApi`/`DsmSlice` surface and the
//! reports they return). `run.py` repeats instances in fresh
//! processes, checks them and reports medians; `README.md` documents
//! the workloads and metrics.

pub mod trace;

use std::sync::{Arc, Mutex};
use std::time::Instant;

use lots_apps::churn::{self, ChurnParams};
use lots_apps::hotobj::{self, HotParams};
use lots_apps::sor::{self, SorParams};
use lots_apps::{AppResult, DsmProgram};
use lots_core::{
    run_cluster, ClusterOptions, DsmApi, LotsConfig, PersistConfig, SchedulerMode, Striping,
};
use lots_jiajia::{run_jiajia_cluster, JiaOptions};
use lots_net::TrafficStats;
use lots_sim::machine::p4_fedora;
use lots_sim::{MachineConfig, NodeStats, SchedSummary, SimDuration, SimInstant, ALL_CATEGORIES};

use trace::{kind_stats, NodeTrace, Traced, KINDS};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// LOTS, p=16: bulk reads of one large striped named object.
    HotObject,
    /// LOTS, p=256: weak-scaled SOR, two rows per node.
    SorWide,
    /// LOTS, p=4: object churn through 1 MB arenas with the journal on.
    ChurnJournal,
    /// JIAJIA, p=8: SOR 512×512, 64 iterations, on the page-based
    /// baseline.
    SorJiajia,
}

/// Every workload, in report order.
pub const WORKLOADS: [Workload; 4] = [
    Workload::HotObject,
    Workload::SorWide,
    Workload::ChurnJournal,
    Workload::SorJiajia,
];

impl Workload {
    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotObject => "hot_object",
            Workload::SorWide => "sor_wide",
            Workload::ChurnJournal => "churn_journal",
            Workload::SorJiajia => "sor_jiajia",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// The cluster and program this workload runs; `smoke` shrinks it
    /// to a self-test size with the same shape.
    pub fn setup(self, smoke: bool) -> Setup {
        match self {
            Workload::HotObject => Setup {
                jiajia: false,
                n: if smoke { 4 } else { 16 },
                dmm_bytes: if smoke { 4 << 20 } else { 224 << 20 },
                segment_bytes: Some(if smoke { 64 << 10 } else { 4 << 20 }),
                persist: false,
                program: Program::Hot(HotParams {
                    // 128 MB object (16 Mi u64s); 512 KB when smoke.
                    elems: if smoke { 1 << 16 } else { 16 << 20 },
                    rounds: 3,
                    single_home: false,
                }),
            },
            Workload::SorWide => {
                let n = if smoke { 16 } else { 256 };
                Setup {
                    jiajia: false,
                    n,
                    dmm_bytes: 4 << 20,
                    segment_bytes: None,
                    persist: false,
                    program: Program::Sor(SorParams {
                        n: 2 * n,
                        iters: if smoke { 2 } else { 8 },
                    }),
                }
            }
            Workload::ChurnJournal => Setup {
                jiajia: false,
                n: 4,
                dmm_bytes: 1 << 20,
                segment_bytes: None,
                persist: true,
                program: Program::Churn(ChurnParams {
                    phases: if smoke { 16 } else { 256 },
                    ..ChurnParams::smoke()
                }),
            },
            Workload::SorJiajia => Setup {
                jiajia: true,
                n: if smoke { 4 } else { 8 },
                dmm_bytes: 0,
                segment_bytes: None,
                persist: false,
                program: Program::Sor(SorParams {
                    n: if smoke { 64 } else { 512 },
                    iters: if smoke { 4 } else { 64 },
                }),
            },
        }
    }
}

/// The kernel a workload runs on every node.
#[derive(Debug, Clone, Copy)]
pub enum Program {
    /// `lots_apps::hotobj`.
    Hot(HotParams),
    /// `lots_apps::sor`.
    Sor(SorParams),
    /// `lots_apps::churn`.
    Churn(ChurnParams),
}

impl DsmProgram for Program {
    fn run<D: DsmApi>(&self, dsm: &D) -> AppResult {
        match self {
            Program::Hot(p) => p.run(dsm),
            Program::Sor(p) => p.run(dsm),
            Program::Churn(p) => p.run(dsm),
        }
    }
}

impl Program {
    /// The checksum each of `n` nodes must report, from the sequential
    /// models of `lots-apps`.
    pub fn model(&self, seed: u64, n: usize) -> Vec<u64> {
        match self {
            Program::Hot(p) => (0..n)
                .map(|me| hotobj::model_node_checksum(p, seed, n, me))
                .collect(),
            Program::Churn(p) => vec![churn::model_checksum(p, seed); n],
            Program::Sor(p) => {
                let per_node = sor_node_models(*p, n);
                let total = per_node.iter().fold(0u64, |a, &c| a.wrapping_add(c));
                assert_eq!(
                    total,
                    sor::sor_sequential(*p),
                    "per-node SOR model disagrees with sor_sequential"
                );
                per_node
            }
        }
    }
}

/// One stencil update (the rule of `lots_apps::sor`).
fn update_row(dst: &mut [f64], above: Option<&[f64]>, same: &[f64], below: Option<&[f64]>) {
    let n = dst.len();
    for c in 0..n {
        let up = above.map_or(0.0, |r| r[c]);
        let down = below.map_or(0.0, |r| r[c]);
        let left = if c > 0 { same[c - 1] } else { 0.0 };
        let right = if c + 1 < n { same[c + 1] } else { 0.0 };
        dst[c] = 0.25 * (up + down + left + right);
    }
}

/// The SOR checksum each of `p` nodes reports: the sequential
/// red-black sweep, summed over each node's own slice of rows.
pub fn sor_node_models(params: SorParams, p: usize) -> Vec<u64> {
    let n = params.n;
    let mut red: Vec<Vec<f64>> = (0..n)
        .map(|r| (0..n).map(|c| sor::init_red(r, c)).collect())
        .collect();
    let mut black: Vec<Vec<f64>> = (0..n)
        .map(|r| (0..n).map(|c| sor::init_black(r, c)).collect())
        .collect();
    let mut dst = vec![0.0f64; n];
    for _ in 0..params.iters {
        for phase in 0..2 {
            let (src, out) = if phase == 0 {
                (&black, &mut red)
            } else {
                (&red, &mut black)
            };
            for r in 0..n {
                let above = (r > 0).then(|| src[r - 1].as_slice());
                let below = (r + 1 < n).then(|| src[r + 1].as_slice());
                update_row(&mut dst, above, &src[r], below);
                out[r].copy_from_slice(&dst);
            }
        }
    }
    (0..p)
        .map(|me| {
            let (lo, hi) = sor::slice_of(n, p, me);
            (lo..hi)
                .flat_map(|r| red[r].iter().chain(&black[r]))
                .fold(0u64, |a, v| a.wrapping_add(v.to_bits()))
        })
        .collect()
}

/// A workload's cluster.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// JIAJIA instead of LOTS.
    pub jiajia: bool,
    /// Cluster size.
    pub n: usize,
    /// DMM arena per node (LOTS).
    pub dmm_bytes: usize,
    /// Striping segment size (LOTS; `None` = unstriped).
    pub segment_bytes: Option<usize>,
    /// Journal on, checkpoint every 4 barriers, background compaction.
    pub persist: bool,
    /// The kernel.
    pub program: Program,
}

/// SplitMix64 finalizer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The simulated machine of seed `seed`: the paper's P4/Fast Ethernet
/// cluster with its one-way network latency drawn from
/// `[base, base × 1.01)`. Every workload's virtual times thus depend
/// on the seed (SOR's data does not), while a seed stays exactly
/// reproducible.
pub fn machine(seed: u64) -> MachineConfig {
    let mut m = p4_fedora();
    let base = m.net.latency.0;
    m.net.latency = SimDuration(base + base * (mix(seed) % 1000) / 100_000);
    m
}

/// One instance to run.
#[derive(Debug, Clone, Copy)]
pub struct Instance {
    /// Which workload.
    pub workload: Workload,
    /// Input seed: the cluster seed, and the machine's latency draw.
    pub seed: u64,
    /// Self-test size.
    pub smoke: bool,
    /// Run every node through the [`Traced`] wrapper.
    pub traced: bool,
}

/// What one instance measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Cluster size.
    pub nodes: usize,
    /// Each node's checksum.
    pub checksums: Vec<u64>,
    /// Each node's checksum against the sequential model.
    pub node_ok: Vec<bool>,
    /// Host seconds from the runner call until the last node entered
    /// the kernel.
    pub setup_s: f64,
    /// Host seconds from then until the runner returned.
    pub host_run_s: f64,
    /// Host seconds the scheduler's worker slots spent running tasks.
    pub worker_busy_s: f64,
    /// Virtual metrics by name, exact for a seed (traced runs add the
    /// span metrics).
    pub virt: Vec<(String, f64)>,
    /// The spans of a traced run.
    pub traces: Option<Vec<NodeTrace>>,
}

/// What the kernel closure shares with the caller: when each node
/// entered the kernel, and the traced nodes' records.
struct Probe {
    program: Program,
    traced: bool,
    epoch: Instant,
    entered: Mutex<Vec<Instant>>,
    traces: Mutex<Vec<NodeTrace>>,
}

impl Probe {
    fn run<D: DsmApi>(&self, dsm: &D) -> AppResult {
        self.entered
            .lock()
            .expect("a node panicked while recording its entry")
            .push(Instant::now());
        if !self.traced {
            return self.program.run(dsm);
        }
        let t = Traced::new(dsm, self.epoch);
        let r = self.program.run(&t);
        self.traces
            .lock()
            .expect("a node panicked while storing its trace")
            .push(t.finish());
        r
    }
}

/// One node's view of a report, common to both systems.
struct NodeView<'r> {
    clock: SimInstant,
    stats: &'r NodeStats,
    traffic: &'r TrafficStats,
}

/// Everything a run reports, before naming.
struct Harvest<'r> {
    results: Vec<AppResult>,
    nodes: Vec<NodeView<'r>>,
    exec_time: SimInstant,
    sched: Option<&'r SchedSummary>,
    frag_permille_max: u64,
    object_slots_max: u64,
}

/// Run one instance.
pub fn run_instance(inst: Instance) -> Outcome {
    let setup = inst.workload.setup(inst.smoke);
    let probe = Arc::new(Probe {
        program: setup.program,
        traced: inst.traced,
        epoch: Instant::now(),
        entered: Mutex::new(Vec::new()),
        traces: Mutex::new(Vec::new()),
    });
    let machine = machine(inst.seed);
    let k = Arc::clone(&probe);
    if setup.jiajia {
        let opts = JiaOptions::new(setup.n, 128 << 20, machine)
            .with_seed(inst.seed)
            .with_scheduler(SchedulerMode::Deterministic);
        let t_call = Instant::now();
        let (results, report) = run_jiajia_cluster(opts, move |dsm| k.run(dsm));
        let t_ret = Instant::now();
        let harvest = Harvest {
            results,
            nodes: report
                .nodes
                .iter()
                .map(|n| NodeView {
                    clock: n.time,
                    stats: &n.stats,
                    traffic: &n.traffic,
                })
                .collect(),
            exec_time: report.exec_time,
            sched: report.sched.as_ref(),
            frag_permille_max: 0,
            object_slots_max: 0,
        };
        finish(&inst, &setup, &probe, harvest, t_call, t_ret)
    } else {
        let mut lots = LotsConfig::small(setup.dmm_bytes);
        lots.striping = setup.segment_bytes.map(Striping::segments_of);
        if setup.persist {
            lots = lots.with_persist(PersistConfig::every(4));
        }
        let opts = ClusterOptions::new(setup.n, lots, machine)
            .with_seed(inst.seed)
            .with_scheduler(SchedulerMode::Deterministic);
        let t_call = Instant::now();
        let (results, report) = run_cluster(opts, move |dsm| k.run(dsm));
        let t_ret = Instant::now();
        let harvest = Harvest {
            results,
            nodes: report
                .nodes
                .iter()
                .map(|n| NodeView {
                    clock: n.time,
                    stats: &n.stats,
                    traffic: &n.traffic,
                })
                .collect(),
            exec_time: report.exec_time,
            sched: report.sched.as_ref(),
            frag_permille_max: report
                .nodes
                .iter()
                .map(|n| n.frag.external_frag_permille)
                .max()
                .unwrap_or(0),
            object_slots_max: report
                .nodes
                .iter()
                .map(|n| n.object_slots as u64)
                .max()
                .unwrap_or(0),
        };
        finish(&inst, &setup, &probe, harvest, t_call, t_ret)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn finish(
    inst: &Instance,
    setup: &Setup,
    probe: &Probe,
    h: Harvest<'_>,
    t_call: Instant,
    t_ret: Instant,
) -> Outcome {
    let entered = probe
        .entered
        .lock()
        .expect("a node panicked while recording its entry");
    let last_entry = *entered.iter().max().expect("every node enters the kernel");
    let n = h.nodes.len();
    let checksums: Vec<u64> = h.results.iter().map(|r| r.checksum).collect();
    let model = setup.program.model(inst.seed, setup.n);
    let node_ok = checksums.iter().zip(&model).map(|(c, m)| c == m).collect();

    let total = |f: &dyn Fn(&NodeView<'_>) -> u64| -> u64 { h.nodes.iter().map(f).sum() };
    let mean_s = |f: &dyn Fn(&NodeView<'_>) -> i128| -> f64 {
        h.nodes.iter().map(f).sum::<i128>() as f64 / n as f64 / 1e9
    };
    let accounted = |v: &NodeView<'_>| -> i128 {
        ALL_CATEGORIES
            .iter()
            .map(|&c| v.stats.time_in(c).0 as i128)
            .sum()
    };
    let virtual_s = h
        .results
        .iter()
        .map(|r| r.elapsed)
        .max()
        .unwrap_or(SimDuration::ZERO);
    let home_bytes: Vec<u64> = h
        .nodes
        .iter()
        .map(|v| v.stats.home_bytes_served())
        .collect();
    let home_total: u64 = home_bytes.iter().sum();
    let home_max = home_bytes.iter().copied().max().unwrap_or(0);
    let sched = h.sched.cloned().unwrap_or_default();
    let msgs = total(&|v| v.traffic.msgs_sent());
    let bytes = total(&|v| v.traffic.bytes_sent());
    let log_bytes = total(&|v| v.stats.log_bytes_appended());

    let mut virt: Vec<(String, f64)> = vec![
        ("virtual_s".into(), virtual_s.as_secs_f64()),
        ("virtual_total_s".into(), h.exec_time.as_secs_f64()),
        ("sim.turns".into(), sched.turns as f64),
        ("sim.wakes".into(), sched.wakes as f64),
        ("sim.epochs".into(), sched.epochs as f64),
    ];
    for cat in ALL_CATEGORIES {
        let name = format!("ledger.{}_s", cat.name().replace('-', "_"));
        virt.push((name, mean_s(&|v| v.stats.time_in(cat).0 as i128)));
    }
    virt.push((
        "ledger.unattributed_s".into(),
        mean_s(&|v| v.clock.0 as i128 - accounted(v)),
    ));
    let swaps_in = total(&|v| v.stats.swaps_in());
    for (name, value) in [
        (
            "core.access_checks",
            total(&|v| v.stats.access_checks()) as f64,
        ),
        (
            "core.home_requests",
            total(&|v| v.stats.home_requests_served()) as f64,
        ),
        ("core.home_bytes", home_total as f64),
        (
            "core.home_load_ratio_permille",
            (home_max * n as u64 * 1000)
                .checked_div(home_total)
                .unwrap_or(0) as f64,
        ),
        (
            "core.versions_published",
            total(&|v| v.stats.versions_published()) as f64,
        ),
        (
            "core.versions_reclaimed",
            total(&|v| v.stats.versions_reclaimed()) as f64,
        ),
        ("core.swaps_out", total(&|v| v.stats.swaps_out()) as f64),
        ("core.swaps_in", swaps_in as f64),
        (
            "core.swap_out_bytes",
            total(&|v| v.stats.swap_out_bytes()) as f64,
        ),
        (
            "core.swap_batches",
            total(&|v| v.stats.swap_batches()) as f64,
        ),
        (
            "core.prefetch_hit_ratio",
            ratio(total(&|v| v.stats.prefetch_hits()), swaps_in),
        ),
        (
            "core.objects_freed",
            total(&|v| v.stats.objects_freed()) as f64,
        ),
        ("core.frag_permille_max", h.frag_permille_max as f64),
        ("core.object_slots_max", h.object_slots_max as f64),
        ("net.msgs_sent", msgs as f64),
        ("net.bytes_sent", bytes as f64),
        ("net.bytes_per_msg", ratio(bytes, msgs)),
        (
            "persist.log_records",
            total(&|v| v.stats.log_records()) as f64,
        ),
        ("persist.log_bytes", log_bytes as f64),
        (
            "persist.checkpoint_bytes",
            total(&|v| v.stats.checkpoint_bytes()) as f64,
        ),
        (
            "persist.compaction_runs",
            total(&|v| v.stats.compaction_runs()) as f64,
        ),
        (
            "persist.compaction_reclaim_ratio",
            ratio(total(&|v| v.stats.compaction_bytes_reclaimed()), log_bytes),
        ),
        (
            "jiajia.page_faults",
            total(&|v| v.stats.page_faults()) as f64,
        ),
    ] {
        virt.push((name.into(), value));
    }

    let traces = inst.traced.then(|| {
        let mut traces = std::mem::take(
            &mut *probe
                .traces
                .lock()
                .expect("a node panicked while storing its trace"),
        );
        traces.sort_by_key(|t| t.node);
        for kind in KINDS {
            let s = kind_stats(
                traces
                    .iter()
                    .flat_map(|t| t.spans.iter())
                    .filter(|s| s.kind == kind)
                    .map(|s| s.virt_ns())
                    .collect(),
            );
            let k = kind.name();
            virt.push((format!("core.{k}.count"), s.count as f64));
            virt.push((format!("core.{k}.virt_p50_us"), s.p50_us));
            virt.push((format!("core.{k}.virt_tail_us"), s.tail_us));
            virt.push((format!("core.{k}.virt_tail_pct"), s.tail_pct));
            virt.push((format!("core.{k}.virt_tail_beyond"), s.tail_beyond as f64));
            virt.push((format!("core.{k}.virt_total_s"), s.total_s / n as f64));
        }
        let self_ns: i128 = traces
            .iter()
            .map(|t| {
                let api: u64 = t.spans.iter().map(|s| s.virt_ns()).sum();
                h.nodes[t.node].clock.0 as i128 - api as i128
            })
            .sum();
        virt.push(("apps.self_virt_s".into(), self_ns as f64 / n as f64 / 1e9));
        virt.push((
            "apps.elem_ops".into(),
            traces.iter().map(|t| t.elem_ops).sum::<u64>() as f64,
        ));
        traces
    });

    Outcome {
        nodes: n,
        checksums,
        node_ok,
        setup_s: last_entry.duration_since(t_call).as_secs_f64(),
        host_run_s: t_ret.duration_since(last_entry).as_secs_f64(),
        worker_busy_s: sched.worker_busy_ns.iter().sum::<u64>() as f64 / 1e9,
        virt,
        traces,
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

impl Outcome {
    /// The instance as one JSON object (one line).
    pub fn to_json(&self, inst: &Instance, peak_rss_mb: f64) -> String {
        let list = |v: Vec<String>| v.join(",");
        let mut virt = Vec::new();
        for (k, v) in &self.virt {
            virt.push(format!("\"{k}\":{}", num(*v)));
        }
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"traced\":{},\"nodes\":{},\
             \"node_ok\":[{}],\"checksums\":[{}],\
             \"host\":{{\"setup_s\":{},\"host_run_s\":{},\"peak_rss_mb\":{},\
             \"sim.worker_busy_s\":{}}},\"virtual\":{{{}}}}}",
            inst.workload.name(),
            inst.seed,
            inst.traced,
            self.nodes,
            list(self.node_ok.iter().map(|b| b.to_string()).collect()),
            list(self.checksums.iter().map(|c| c.to_string()).collect()),
            num(self.setup_s),
            num(self.host_run_s),
            num(peak_rss_mb),
            num(self.worker_busy_s),
            virt.join(",")
        )
    }
}

/// A finite JSON number (non-finite values, which no metric should
/// produce, print as 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}
