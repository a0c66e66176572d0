#!/usr/bin/env python3
"""Self-test of the benchmark, from the root of a checkout:

    python3 perfbench/selftest.py

Runs the program's own tests (`cargo test` of perfbench/: sequential
models, byte-neutral tracing, seed reproducibility), then a smoke-sized
run of every workload through run.py in both modes, and checks that
each run is correct and emits exactly the metrics BENCHMARK.json names,
with their units.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    subprocess.run(
        ["cargo", "test", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, check=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bad = 0
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            r = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"],
                 "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
                env=env, capture_output=True, text=True)
            last = json.loads(r.stdout.strip().splitlines()[-1]) if r.returncode == 0 else {}
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in last.get("metrics", {}).items()}
            ok = (last.get("correct") is True and last.get("failed") == 0
                  and got == want
                  and all(isinstance(v["value"], (int, float))
                          for v in last["metrics"].values()))
            print(f"{'ok  ' if ok else 'FAIL'} {w['name']} trace {trace}: "
                  f"{len(got)}/{len(want)} metrics, attempted {last.get('attempted')}",
                  flush=True)
            if not ok:
                bad += 1
                print(r.stdout[-2000:], r.stderr[-2000:], file=sys.stderr)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
