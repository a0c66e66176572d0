#!/usr/bin/env python3
"""The repository benchmark: run one workload for a fixed time and
print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the root of a checkout. It builds `perfbench/` (a cargo
package of its own, depending on the workspace crates by path) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then starts one process
per workload instance, again and again until `--seconds` are used up.
Each process runs one cluster under the deterministic scheduler and
prints one JSON line (see `src/main.rs`). This script checks every
instance and prints, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` counts node results (one per simulated node per instance),
`failed` those that disagree with the sequential model, plus every
node of an instance that panicked, deadlocked or timed out.
`correct` also requires every instance of the seed to reproduce the
same checksums and virtual metrics, and the traced instances to
reproduce the untraced ones exactly.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json (medians
over the instances of the run), `--trace 1` the per-layer metrics:
untraced and traced instances alternate, the virtual per-layer values
come from the traced run, the host ones from the untraced runs.
Names and units come from BENCHMARK.json; see README.md for what each
metric means and which change should move it.
"""

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Cluster size of each workload (normal, smoke): the node count an
# instance that dies without reporting is charged as failed.
NODES = {
    "hot_object": (16, 4),
    "sor_wide": (256, 16),
    "churn_journal": (4, 4),
    "sor_jiajia": (8, 4),
}

# Instances a run makes even when one instance outlasts --seconds.
MIN_UNTRACED = 3
MIN_TRACED = 1
# Wall limit of one instance, in seconds.
INSTANCE_TIMEOUT = 120


def pin_to_one_cpu():
    """Run the instance on one CPU. The deterministic scheduler runs
    one simulated task at a time, so host concurrency is 1 by design;
    pinning keeps its thread hand-offs on one core instead of bouncing
    between cores, which makes host times cheaper and steadier."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def log(msg):
    print(msg, flush=True)


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)
    sys.exit(code)


def machine():
    """nproc, MemTotal and CPU model: the machine every host number
    ran on."""
    mem_mb, cpu = "?", "?"
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    mem_mb = str(int(line.split()[1]) // 1024)
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"nproc={os.cpu_count()} mem_total_mb={mem_mb} cpu={cpu!r}"


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build(target_dir):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Cargo's output goes to stderr so the result stays the last line.
    r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail(f"build failed (exit {r.returncode})")
    binary = os.path.join(target_dir, "release", "lots-perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def run_instance(binary, args, traced, spans_path):
    """Run one instance; return (report or None, wall seconds)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    if traced:
        cmd += ["--traced", "--spans", spans_path]
    t0 = time.monotonic()
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=INSTANCE_TIMEOUT,
                           preexec_fn=pin_to_one_cpu)
    except subprocess.TimeoutExpired:
        log(f"instance timed out after {INSTANCE_TIMEOUT} s")
        return None, time.monotonic() - t0
    wall = time.monotonic() - t0
    if r.returncode != 0:
        tail = r.stderr.strip().splitlines()[-3:]
        log(f"instance failed (exit {r.returncode}): {' | '.join(tail)}")
        return None, wall
    try:
        return json.loads(r.stdout.strip().splitlines()[-1]), wall
    except (ValueError, IndexError):
        log("instance printed no result")
        return None, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(NODES))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="self-test sizes (seconds, not minutes)")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(target_dir)
    spans_dir = os.path.join(target_dir, "perfbench-spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans_path = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.tsv")

    nodes = NODES[args.workload][1 if args.smoke else 0]
    log(f"machine: {machine()}")
    log(f"workload {args.workload} seed {args.seed} nodes {nodes} "
        f"trace {args.trace} seconds {args.seconds:g}")

    untraced, traced = [], []
    attempted = failed = 0
    consistent = True
    longest = {False: 0.0, True: 0.0}
    t_start = time.monotonic()
    for i in itertools.count():
        # Traced runs alternate with untraced ones, starting untraced.
        want_traced = bool(args.trace) and i % 2 == 1
        done = len(untraced) >= MIN_UNTRACED and (
            not args.trace or len(traced) >= MIN_TRACED)
        elapsed = time.monotonic() - t_start
        if (done or elapsed > args.seconds) and elapsed + longest[want_traced] > args.seconds:
            break
        rep, wall = run_instance(binary, args, want_traced, spans_path)
        longest[want_traced] = max(longest[want_traced], wall)
        attempted += nodes
        if rep is None or rep["nodes"] != nodes:
            failed += nodes
            consistent = False
            continue
        bad = rep["node_ok"].count(False)
        failed += bad
        (traced if want_traced else untraced).append(rep)
        h = rep["host"]
        log(f"{'traced  ' if want_traced else 'untraced'} "
            f"setup_s={h['setup_s']:.4f} host_run_s={h['host_run_s']:.4f} "
            f"peak_rss_mb={h['peak_rss_mb']:.1f} "
            f"virtual_s={rep['virtual']['virtual_s']} failed_nodes={bad}")

    # Same seed, same answers: every instance must agree exactly on
    # checksums and on every virtual metric the untraced run reports;
    # the traced run must reproduce them (it may add span metrics).
    if untraced:
        ref = untraced[0]
        for rep in untraced[1:] + traced:
            same = rep["checksums"] == ref["checksums"] and all(
                rep["virtual"].get(k) == v for k, v in ref["virtual"].items())
            if not same:
                log("instances of one seed disagree (checksums or virtual metrics)")
                consistent = False
    else:
        consistent = False

    values = {}
    if untraced:
        host = lambda k, reps=untraced: statistics.median([r["host"][k] for r in reps])
        virt = ref["virtual"]
        if not args.trace:
            values = {
                "virtual_s": virt["virtual_s"],
                "virtual_total_s": virt["virtual_total_s"],
                "host_run_s": host("host_run_s"),
                "setup_s": host("setup_s"),
                "peak_rss_mb": host("peak_rss_mb"),
            }
        elif traced:
            values = dict(traced[0]["virtual"])
            values["sim.worker_busy_s"] = host("sim.worker_busy_s")
            turns = virt["sim.turns"]
            values["sim.host_ns_per_turn"] = host("host_run_s") / turns * 1e9 if turns else 0.0
            values["core.rss_per_node_mb"] = host("peak_rss_mb") / nodes
            values["trace.host_overhead_ratio"] = (
                host("host_run_s", traced) / host("host_run_s"))
            for k in ("barrier", "lock", "alloc", "free", "lookup", "view", "view_mut"):
                log(f"core.{k}: {values[f'core.{k}.count']:.0f} spans, "
                    f"virt p50 {values[f'core.{k}.virt_p50_us']} us, "
                    f"tail p{values[f'core.{k}.virt_tail_pct']:g} "
                    f"{values[f'core.{k}.virt_tail_us']} us "
                    f"({values[f'core.{k}.virt_tail_beyond']:.0f} samples beyond)")
            log(f"spans written to {spans_path}")

    missing = [k for k in units if k not in values]
    if values and missing:
        fail(f"instances did not report {missing}", code=4)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units if k in values}
    log(f"machine: {machine()}")
    print(json.dumps({
        "correct": consistent and failed == 0 and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }), flush=True)


if __name__ == "__main__":
    main()
