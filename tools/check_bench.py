#!/usr/bin/env python3
"""Validate the repository's performance records (BENCH_*.json).

  check_bench.py [REPO_ROOT]

Every `BENCH_PR<n>.json` at the repository root must follow the schema
`tools/ab.sh` writes: both revisions, the run settings, the host, per
metric each side's runs and quartiles, the ratio of the medians and the
pair wins, and each side's attempted and failed checks. The metric names,
units and directions must be those `BENCHMARK.json` declares, and the
quartiles, ratio and wins must agree with the runs.

A record marked `"source": "CHANGES.md"` was transcribed from a CHANGES.md
entry whose raw runs are gone. It carries no runs: each side has a median
and, where the entry gave one, its quartiles; wins and checks may be
missing; the ratio must match the medians to the rounding of the entry.

Every CHANGES.md entry tagged `PR <n>: [perf]` must have its
`BENCH_PR<n>.json`.

Exit status 0 when every record is valid and every `[perf]` entry has
one, 1 otherwise (each problem is printed).
"""

import json
import re
import statistics
import sys
from pathlib import Path

SIDES = ("base", "head")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def check_revision(rev, where, transcribed, problems):
    if not isinstance(rev, dict) or not isinstance(rev.get("rev"), str):
        problems.append(f"{where}: needs a string 'rev'")
        return
    commit = rev.get("commit")
    if commit is None and transcribed:
        return
    if not (isinstance(commit, str) and re.fullmatch(r"[0-9a-f]{40}", commit)):
        problems.append(f"{where}: 'commit' must be a full 40-hex commit id")


def check_metric(m, declared, pairs, transcribed, where, problems):
    name = m.get("name")
    spec = declared.get(name)
    if spec is None:
        problems.append(f"{where}: metric {name!r} is not declared in BENCHMARK.json")
        return
    where = f"{where} {name}"
    for key in ("unit", "better"):
        if m.get(key) != spec[key]:
            problems.append(f"{where}: {key} {m.get(key)!r}, BENCHMARK.json says {spec[key]!r}")
    medians = {}
    runs = {}
    for side in SIDES:
        s = m.get(side)
        if not isinstance(s, dict) or not is_number(s.get("median")):
            problems.append(f"{where}: {side} needs a numeric 'median'")
            return
        medians[side] = s["median"]
        q1, q3 = s.get("q1"), s.get("q3")
        if transcribed:
            if "runs" in s:
                problems.append(f"{where}: a record from CHANGES.md has no runs")
            if (q1 is None) != (q3 is None):
                problems.append(f"{where}: {side} gives one quartile without the other")
        else:
            r = s.get("runs")
            if not (isinstance(r, list) and len(r) == pairs and all(map(is_number, r))):
                problems.append(f"{where}: {side} needs {pairs} numeric runs")
                return
            runs[side] = r
            want = quartiles(r)
            got = (q1, s["median"], q3)
            if not all(is_number(g) and close(g, w, 1e-9) for g, w in zip(got, want)):
                problems.append(f"{where}: {side} quartiles {got} disagree with its runs {want}")
        if q1 is not None and not (is_number(q1) and is_number(q3) and q1 <= s["median"] <= q3):
            problems.append(f"{where}: {side} quartiles out of order")
    ratio = m.get("ratio")
    if medians["base"] == 0:
        if ratio is not None:
            problems.append(f"{where}: ratio must be null when the base median is 0")
    elif not (is_number(ratio) and close(ratio, medians["head"] / medians["base"],
                                         5e-3 if transcribed else 1e-9)):
        problems.append(f"{where}: ratio {ratio} is not head/base median "
                        f"{medians['head'] / medians['base']:.6g}")
    wins = m.get("wins")
    if wins is None and transcribed:
        return
    if not (isinstance(wins, int) and not isinstance(wins, bool) and 0 <= wins <= pairs):
        problems.append(f"{where}: wins must be an integer in 0..{pairs}")
    elif runs:
        lower = spec["better"] == "lower"
        want = sum(1 for b, h in zip(runs["base"], runs["head"]) if (h < b if lower else h > b))
        if wins != want:
            problems.append(f"{where}: wins {wins}, the runs give {want}")


def check_record(path, bench, problems):
    where = path.name
    try:
        rec = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        problems.append(f"{where}: unreadable: {e}")
        return
    if not isinstance(rec, dict):
        problems.append(f"{where}: not a JSON object")
        return
    source = rec.get("source")
    if source not in (None, "CHANGES.md"):
        problems.append(f"{where}: unknown source {source!r}")
        return
    transcribed = source == "CHANGES.md"
    for side in SIDES:
        check_revision(rec.get(side), f"{where} {side}", transcribed, problems)
    workloads = {w["name"] for w in bench["workloads"]}
    if rec.get("workload") not in workloads:
        problems.append(f"{where}: workload {rec.get('workload')!r} not in BENCHMARK.json")
    for key, kind in (("seed", int), ("pairs", int), ("trace", bool)):
        v = rec.get(key)
        if not isinstance(v, kind) or (kind is int and isinstance(v, bool)):
            problems.append(f"{where}: '{key}' must be a {kind.__name__}")
            return
    pairs = rec["pairs"]
    if pairs < 1:
        problems.append(f"{where}: 'pairs' must be positive")
        return
    host = rec.get("host")
    if host is not None or not transcribed:
        if not (isinstance(host, dict) and isinstance(host.get("cpus"), int)
                and host["cpus"] > 0 and isinstance(host.get("model"), (str, type(None)))):
            problems.append(f"{where}: 'host' needs a positive 'cpus' and a 'model'")
    declared = {m["name"]: m for m in bench["per_layer" if rec["trace"] else "end_to_end"]}
    metrics = rec.get("metrics")
    if not isinstance(metrics, list) or not metrics:
        problems.append(f"{where}: 'metrics' must be a non-empty list")
        return
    names = [m.get("name") if isinstance(m, dict) else None for m in metrics]
    if len(set(names)) != len(names):
        problems.append(f"{where}: a metric is listed twice")
    for m in metrics:
        if not isinstance(m, dict):
            problems.append(f"{where}: a metric is not an object")
            continue
        check_metric(m, declared, pairs, transcribed, where, problems)
    checks = rec.get("checks")
    if checks is None and transcribed:
        return
    for side in SIDES:
        c = (checks or {}).get(side)
        ok = isinstance(c, dict) and all(
            isinstance(c.get(k), list) and len(c[k]) == pairs
            and all(isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in c[k])
            for k in ("attempted", "failed"))
        if not ok:
            problems.append(f"{where}: checks.{side} needs {pairs} attempted and failed counts")


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent)
    bench = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    records = sorted(root.glob("BENCH_*.json"))
    recorded = set()
    for path in records:
        m = re.fullmatch(r"BENCH_PR(\d+)\.json", path.name)
        if m is None:
            problems.append(f"{path.name}: not named BENCH_PR<n>.json")
            continue
        recorded.add(int(m.group(1)))
        check_record(path, bench, problems)
    for line in (root / "CHANGES.md").read_text().splitlines():
        m = re.match(r"PR (\d+): \[perf\]", line)
        if m and int(m.group(1)) not in recorded:
            problems.append(f"CHANGES.md: PR {m.group(1)} is tagged [perf] "
                            f"but BENCH_PR{m.group(1)}.json is missing")
    for p in problems:
        print(f"check_bench: {p}", file=sys.stderr)
    if problems:
        sys.exit(1)
    print(f"check_bench: {len(records)} records valid; every [perf] entry has one")


if __name__ == "__main__":
    main()
