#!/usr/bin/env python3
"""Benchmark entry point: builds arcperf from the checkout, then runs it.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selfcheck
    python3 perfbench/run.py --steadiness [--workloads a,b] [--seeds 5] [--seconds 20]

Run from anywhere inside the checkout; everything it writes goes under
.bench_build/ at the checkout root (CMake build tree, journals, traces).
The last line of stdout of a workload run is its JSON result.
"""
import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "arcperf"
WORKLOADS = ["paper-sweep", "fleet-4x16x8", "lossy-journal"]
# The seed results are quoted at, and one kept out of tuning to confirm a
# claim on inputs it was not developed against.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20021
# A run must finish within 180 s; leave margin for process start-up.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "core" / "framework.hpp").is_file():
        log(f"run.py: no arcadia sources under {ROOT / 'src'}; cannot build")
        sys.exit(2)
    BUILD.mkdir(exist_ok=True)
    # One build at a time per checkout; later runs find it up to date.
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                          str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j4", "--target",
                      "arcperf"])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                log(f"run.py: build step failed: {' '.join(cmd)}")
                sys.exit(2)


def wipe_journals(out):
    for d in out.glob("journal-*"):
        shutil.rmtree(d, ignore_errors=True)


def run_workload(workload, seed, seconds, trace):
    out = BUILD / "out" / f"{workload}-seed{seed}"
    # Journals of an earlier run never leak into this one.
    wipe_journals(out)
    out.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 3, ""
    finally:
        wipe_journals(out)
    return r.returncode, r.stdout


def cmd_run(args):
    build()
    code, stdout = run_workload(args.workload, args.seed, args.seconds,
                                args.trace)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


def cmd_selfcheck(_args):
    build()
    r = subprocess.run([str(BINARY), "--selfcheck"])
    bad = r.returncode != 0
    listed = subprocess.run([str(BINARY), "--list-metrics"],
                            stdout=subprocess.PIPE, text=True, check=True)
    emitted = {"end_to_end": [], "per_layer": []}
    for line in listed.stdout.splitlines():
        kind, name, unit = line.split()
        emitted[kind].append((name, unit))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for kind in emitted:
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        if declared != emitted[kind]:
            log(f"selfcheck FAIL: BENCHMARK.json {kind} differs from what "
                f"arcperf reports")
            bad = True
    if [w["name"] for w in spec["workloads"]] != WORKLOADS:
        log("selfcheck FAIL: BENCHMARK.json workloads differ from run.py")
        bad = True
    print("selfcheck:", "FAIL" if bad else "metric lists match BENCHMARK.json")
    return 1 if bad else 0


def cmd_steadiness(args):
    """Two sets of runs back to back, same seeds in both: per workload and
    metric, each set's median and quartiles, the spread (IQR / median) and
    the drift of the second median against the first, signed so that
    positive means worse. Sim-time metrics must repeat bit for bit per seed.
    """
    build()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    seeds = [DEFAULT_SEED + k for k in range(args.seeds)]
    results = {}  # (set, workload, seed) -> metrics
    ok = True
    for s in (1, 2):
        for w in workloads:
            for seed in seeds:
                code, stdout = run_workload(w, seed, seconds, 0)
                lines = stdout.strip().splitlines()
                if code != 0 or not lines:
                    log(f"set {s} {w} seed {seed}: exit {code}, no result")
                    return 1
                res = json.loads(lines[-1])
                if not res["correct"]:
                    log(f"set {s} {w} seed {seed}: correct=false")
                    ok = False
                results[(s, w, seed)] = {k: v["value"]
                                         for k, v in res["metrics"].items()}
                log(f"set {s} {w} seed {seed}: " + " ".join(
                    f"{k}={v:.6g}" for k, v in results[(s, w, seed)].items()))
    print(f"steadiness: {len(seeds)} seeds x 2 sets, {seconds} s per run")
    print(f"{'workload':14} {'metric':20} {'med1':>12} {'q1':>12} {'q3':>12}"
          f" {'spread1':>8} {'med2':>12} {'spread2':>8} {'drift':>8}"
          f" {'bound':>6}  verdict")
    for w in workloads:
        for name, m in metrics.items():
            v1 = [results[(1, w, seed)][name] for seed in seeds]
            v2 = [results[(2, w, seed)][name] for seed in seeds]
            q1a, med1, q3a = statistics.quantiles(v1, n=4)
            q1b, med2, q3b = statistics.quantiles(v2, n=4)
            spread1 = (q3a - q1a) / med1
            spread2 = (q3b - q1b) / med2
            sign = 1 if m["better"] == "lower" else -1
            drift = sign * (med2 - med1) / med1
            bound = m["bound"]
            verdict = "ok"
            if max(spread1, spread2) > bound / 3:
                verdict = "SPREAD"
            if drift > bound:
                verdict = "DRIFT"
            if name.endswith("_sim_s") or name.endswith("_ratio"):
                if v1 != v2:
                    verdict = "NOT-REPEATABLE"
            if verdict != "ok":
                ok = False
            print(f"{w:14} {name:20} {med1:12.6g} {q1a:12.6g} {q3a:12.6g}"
                  f" {spread1:8.4f} {med2:12.6g} {spread2:8.4f} {drift:8.4f}"
                  f" {bound:6.3f}  {verdict}")
    print("steadiness:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selfcheck", action="store_true")
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--workloads", help="steadiness: comma-separated subset")
    p.add_argument("--seeds", type=int, default=5,
                   help="steadiness: seeds per set")
    args = p.parse_args()
    os.chdir(ROOT)
    if args.selfcheck:
        return cmd_selfcheck(args)
    if args.steadiness:
        return cmd_steadiness(args)
    if not args.workload or not args.seconds:
        p.error("--workload and --seconds are required")
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
