#!/usr/bin/env python3
"""Run-to-run spread of the benchmark.

Runs the command from BENCHMARK.json on one workload once per seed and
prints, for every metric, its median and the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the
median. End-to-end metrics pass when that spread is below a third of
their bound. Every run measures run_seconds from BENCHMARK.json. Exits
non-zero when a run fails, a result line is malformed, its metric names
differ from BENCHMARK.json, or a spread is too wide.

    python3 benchmark/spread.py --workload h2p-br --seeds 1-10
    python3 benchmark/spread.py --workload baseline --seeds 1-5 --trace 1

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    group = bench["per_layer" if args.trace == "1" else "end_to_end"]
    expected = {m["name"] for m in group}
    seconds = bench["run_seconds"]

    values = {name: [] for name in expected}
    ok = True
    for seed in seed_list(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            print(f"seed {seed}: bad result keys {sorted(result)}", file=sys.stderr)
            return 1
        if set(result["metrics"]) != expected:
            print(f"seed {seed}: metric names differ from BENCHMARK.json: "
                  f"{sorted(set(result['metrics']) ^ expected)}", file=sys.stderr)
            return 1
        if not result["correct"] or result["failed"] != 0:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} checks failed",
                  file=sys.stderr)
            ok = False
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{m['name']}={result['metrics'][m['name']]['value']:.6g}" for m in group[:6]),
            flush=True)

    print(f"\n{args.workload} trace {args.trace}, {len(values[group[0]['name']])} runs "
          f"of {seconds} s")
    print(f"{'metric':<42} {'median':>14} {'spread':>8} {'bound/3':>8}")
    for m in group:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        limit = m.get("bound")
        verdict = ""
        if limit is not None:
            verdict = "ok" if spread < limit / 3 else "WIDE"
            ok &= spread < limit / 3
        third = f"{limit / 3:.4f}" if limit is not None else "-"
        print(f"{m['name']:<42} {med:>14.6g} {spread:>8.4f} {third:>8} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
