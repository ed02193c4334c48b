#!/usr/bin/env python3
"""Builds the serving-system benchmark from this checkout and runs it.

One run (the form BENCHMARK.json names):
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
      --trace <0|1> [--trace-file chrome.json] [--out result.json]

A run set, every workload once per seed, one JSON line per run:
  python3 perfbench/run.py --sweep --runs 10 --seed-base 1 --out set.jsonl \
      [--workloads adhoc_unique,batch_zipf] [--seconds 15] [--trace 0]

--seconds defaults to BENCHMARK.json's run_seconds.

Compare two run sets against the bounds in BENCHMARK.json:
  python3 perfbench/run.py --compare A.jsonl B.jsonl

The build goes to .bench_build/perfbench (Release). The last line of a
run's standard output is its result JSON.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "greca_bench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def build():
    """Configures (once) and builds greca_bench; returns False on failure."""
    log = sys.stderr
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            # A failed configure leaves a cache that would skip this step.
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "greca_bench",
           "-j", jobs]
    return subprocess.run(cmd, stdout=log, stderr=log).returncode == 0


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def bench_args(workload, seed, seconds, trace):
    return [str(BINARY), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--git-sha", git_sha()]


def run_one(args):
    cmd = bench_args(args.workload, args.seed, args.seconds, args.trace)
    if args.trace_file:
        cmd += ["--trace-file", args.trace_file]
    if args.out:
        cmd += ["--out", args.out]
    return subprocess.run(cmd).returncode


def sweep(args):
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    with open(args.out, "a", encoding="utf-8") as out:
        for workload in workloads:
            for seed in range(args.seed_base, args.seed_base + args.runs):
                proc = subprocess.run(
                    bench_args(workload, seed, args.seconds, args.trace),
                    capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or len(lines) < 2:
                    sys.stderr.write(proc.stderr)
                    print(f"{workload} seed {seed}: failed", file=sys.stderr)
                    return 1
                record = {"workload": workload, "seed": seed,
                          "trace": args.trace,
                          "header": json.loads(lines[-2])["header"],
                          "result": json.loads(lines[-1])}
                out.write(json.dumps(record) + "\n")
                out.flush()
                result = record["result"]
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}",
                      file=sys.stderr)
    return 0


def load_set(path):
    """{(workload, trace): {"metrics": {metric: [values]}, "failed": n,
    "attempted": n, "incorrect": runs}} from a run-set file."""
    runs = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            result = record["result"]
            key = (record["workload"], record["trace"])
            entry = runs.setdefault(key, {"metrics": {}, "failed": 0,
                                          "attempted": 0, "incorrect": 0})
            entry["failed"] += result["failed"]
            entry["attempted"] += result["attempted"]
            entry["incorrect"] += 0 if result["correct"] else 1
            metrics = {name: m["value"] for name, m in result["metrics"].items()}
            # Shown without a verdict: the timings before division by the
            # host factor, and the factor.
            header = record.get("header", {})
            for name, m in header.get("unscaled", {}).items():
                metrics["unscaled." + name] = m["value"]
            if "host_factor" in header:
                metrics["host_factor"] = header["host_factor"]
            for name, value in metrics.items():
                entry["metrics"].setdefault(name, []).append(value)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a, path_b):
    defs = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    set_a, set_b = load_set(path_a), load_set(path_b)
    rejected = 0
    print(f"{'workload':13} {'metric':34} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'change':>8}  verdict")
    for key in sorted(set(set_a) & set(set_b)):
        # No metric counts while B fails more operations than A, or while
        # any run of B failed a correctness check.
        run_a, run_b = set_a[key], set_b[key]
        if run_b["incorrect"] > 0 or run_b["failed"] > run_a["failed"]:
            verdict = f"FAILURES ({run_b['incorrect']} incorrect runs in B)"
            rejected += 1
        else:
            verdict = "ok"
        counts_a = f"{run_a['failed']} / {run_a['attempted']}"
        counts_b = f"{run_b['failed']} / {run_b['attempted']}"
        print(f"{key[0]:13} {f'failed / attempted, trace {key[1]}':34} "
              f"{counts_a:>34} {counts_b:>34} {'':8}  {verdict}")
        metrics_a, metrics_b = run_a["metrics"], run_b["metrics"]
        for name in sorted(set(metrics_a) & set(metrics_b)):
            a, b = metrics_a[name], metrics_b[name]
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            better = defs.get(name, {}).get("better", "lower")
            bound = defs.get(name, {}).get("bound")
            change = (bm - am) / am if am else 0.0
            worse = change if better == "lower" else -change
            spread = max((a3 - a1) / am if am else 0.0,
                         (b3 - b1) / bm if bm else 0.0)
            if bound is None:
                verdict = "-"
            elif worse > bound:
                verdict = "REGRESSION"
                rejected += 1
            elif spread > bound:
                verdict = "unresolved (spread > bound)"
            else:
                verdict = f"ok (bound {bound:.2f})"
            print(f"{key[0]:13} {name:34} "
                  f"{am:12.4g} [{a1:9.4g}, {a3:9.4g}] "
                  f"{bm:12.4g} [{b1:9.4g}, {b3:9.4g}] "
                  f"{100 * change:+7.2f}%  {verdict}")
    return 1 if rejected else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--trace-file")
    parser.add_argument("--out")
    parser.add_argument("--sweep", action="store_true")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workloads")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    if not args.sweep and not args.workload:
        parser.error("--workload is required")
    if args.sweep and not args.out:
        parser.error("--sweep needs --out")
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    return sweep(args) if args.sweep else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
