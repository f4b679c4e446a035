#!/usr/bin/env python3
"""Runs the benchmark on one workload over several seeds and reports, per
metric, the median, the quartiles and the quartile spread as a share of
the median (Python's statistics.quantiles(values, n=4)), next to the
bound BENCHMARK.json fixes for it.

It also applies the deterministic-count gate: every run of the same seed
must write the same "work" section into its run record. Save a set's work
counts with --save and gate another commit's runs against them with
--against (same workload, same seeds).

Run from the repository root:

    python3 perfbench/spread.py --workload scan_long --seeds 1-5
    python3 perfbench/spread.py --workload store_session --trace 1 --repeat 2
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", trace]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    record = json.loads(
        Path(f".bench_out/{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per seed (the work gate compares them)")
    ap.add_argument("--save", help="write {seed: work counts} here")
    ap.add_argument("--against", help="gate work counts against a --save file")
    args = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    kind = "per_layer" if args.trace == "1" else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[kind]}

    values = {name: [] for name in bounds}
    work = {}
    advisory = {}
    problems = []
    for _ in range(args.repeat):
        for seed in seed_list(args.seeds):
            result, record = run_once(spec["command"], args.workload, seed,
                                      seconds, args.trace)
            if not result["correct"] or result["failed"]:
                problems.append(f"seed {seed}: correct={result['correct']} "
                                f"failed={result['failed']}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            key = str(seed)
            if key in work and work[key] != record["work"]:
                problems.append(f"seed {seed}: work counts differ between runs")
            work[key] = record["work"]
            for name, count in record.get("advisory", {}).items():
                advisory.setdefault(f"{name}@{seed}", []).append(count)
            print(f"seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
                flush=True)

    print(f"\n{'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "ok" if spread <= bound / 3 else (
                "within" if spread <= bound else "OVER")
        print(f"{name:<34} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{spread:>8.4f} {bound if bound is not None else '':>6} {flag}")
    for name, counts in sorted(advisory.items()):
        if len(counts) > 1:
            print(f"advisory {name}: min {min(counts)} max {max(counts)}")

    if args.save:
        Path(args.save).write_text(json.dumps(work, indent=1, sort_keys=True))
    if args.against:
        before = json.loads(Path(args.against).read_text())
        for seed, counts in work.items():
            if seed in before and before[seed] != counts:
                problems.append(f"seed {seed}: work counts differ from {args.against}")
    for p in problems:
        print("FAIL", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
