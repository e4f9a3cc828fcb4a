#!/usr/bin/env python3
"""Build and run the summary-cache benchmark.

One measured run (the last stdout line is the JSON result):
    python3 scbench/run.py --workload mesh_summary --seed 1 --seconds 10 --trace 0

Quick mode, the benchmark's own test (every workload, small scale, all
checks on, both the untraced and the traced run):
    python3 scbench/run.py --quick

Repeat mode (every workload k times with seeds 1..k; prints each
end-to-end metric's median, quartiles and spread, and each run's steal, host-wide
and on the CPU the run is pinned to):
    python3 scbench/run.py --repeat 10 [--workload NAME] [--seconds 10]

Run from the repository root or anywhere else: paths are resolved from this
file. The build goes to .bench_build/ at the repository root.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "scbench")
SPANS = os.path.join(BUILD, "spans")
WORKLOADS = ["mesh_summary", "mesh_icp", "hot_local", "sim_summary"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally. Output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("scbench: no program sources next to the benchmark (src/CMakeLists.txt)")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=840)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"scbench: build step failed: {err}")
            return False
        if done.returncode != 0:
            log(f"scbench: build step failed: {' '.join(cmd)}")
            return False
    return os.path.isfile(BINARY)


def run_binary(args, echo=True):
    """Run the benchmark binary; returns (exit code, stdout lines)."""
    os.makedirs(SPANS, exist_ok=True)
    cmd = [BINARY] + args + ["--out-dir", SPANS]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        if echo and err.stdout:
            sys.stdout.write(err.stdout if isinstance(err.stdout, str) else err.stdout.decode())
        log(f"scbench: run timed out after {RUN_TIMEOUT_S}s")
        return 1, []
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    return done.returncode, done.stdout.splitlines()


def result_of(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]])


def quick():
    """Every workload at small scale, untraced and traced, all checks on."""
    e2e, layers = declared_metrics()
    ok = True
    for w in WORKLOADS:
        for trace, names in (("0", e2e), ("1", layers)):
            code, lines = run_binary(["--workload", w, "--seed", "7", "--seconds", "1",
                                      "--trace", trace, "--quick"], echo=False)
            res = result_of(lines)
            problems = []
            if code != 0 or res is None:
                problems.append(f"exit {code}, no result")
            else:
                if res["correct"] is not True:
                    problems.append("checks failed: " +
                                    "; ".join(l for l in lines if l.startswith("CHECK FAILED")))
                if res["attempted"] < 1 or res["failed"] != 0:
                    problems.append(f"attempted {res['attempted']} failed {res['failed']}")
                if sorted(res["metrics"]) != sorted(names):
                    problems.append("metric names differ from BENCHMARK.json")
                if trace == "0" and any(m["value"] <= 0 for m in res["metrics"].values()):
                    problems.append("an end-to-end metric is not positive")
            status = "ok" if not problems else "FAIL: " + " | ".join(problems)
            print(f"quick {w:13s} trace={trace}: {status}", flush=True)
            ok = ok and not problems
    return 0 if ok else 1


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def repeat(k, workloads, seconds):
    bounds = {}
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    except (OSError, ValueError, KeyError):
        pass
    worst = 0
    for w in workloads:
        runs = []
        for seed in range(1, k + 1):
            t0 = time.time()
            code, lines = run_binary(["--workload", w, "--seed", str(seed), "--seconds",
                                      str(seconds), "--trace", "0"], echo=False)
            res = result_of(lines)
            host = next((l for l in lines if " steal " in l), "")
            m = re.search(r"steal ([0-9.]+) idle ([0-9.]+); cpu (-?[0-9]+) steal ([0-9.]+)", host)
            steal, idle, cpu, cpu_steal = m.groups() if m else ("?", "?", "?", "?")
            if code != 0 or res is None:
                print(f"{w} seed {seed}: no result (exit {code})", flush=True)
                worst = 1
                continue
            runs.append(res)
            vals = " ".join(f"{n}={v['value']:.5g}" for n, v in res["metrics"].items())
            print(f"{w} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} steal={steal} idle={idle} cpu{cpu}_steal={cpu_steal} "
                  f"wall={time.time() - t0:.1f}s {vals}", flush=True)
            if res["correct"] is not True:
                worst = 1
        if len(runs) < 2:
            continue
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3, s = spread(values)
            b = bounds.get(name)
            flag = "" if b is None or name == "setup_s" or s <= b / 3 else "  <-- above bound/3"
            print(f"  {w:13s} {name:22s} median={q2:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={s:.4f}" + (f" bound={b}" if b is not None else "") + flag,
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"  {w:13s} failed share(s): {sorted(shares)}", flush=True)
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--repeat", type=int, default=0)
    a = ap.parse_args()

    if not build():
        return 1
    if a.quick:
        return quick()
    if a.repeat:
        return repeat(a.repeat, [a.workload] if a.workload else WORKLOADS, a.seconds)
    if a.workload not in WORKLOADS:
        log(f"scbench: --workload must be one of {', '.join(WORKLOADS)}")
        return 2
    code, lines = run_binary(["--workload", a.workload, "--seed", str(a.seed), "--seconds",
                              str(a.seconds), "--trace", a.trace])
    if code != 0 or result_of(lines) is None:
        log(f"scbench: {a.workload} produced no result (exit {code})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
