#!/usr/bin/env python3
"""Validate a figures --telemetry-out directory.

Checks that every exporter's output parses (Chrome trace JSON, JSONL)
and that the views agree with each other: typed sample columns, nonzero
progress counters, a distinct label for every counters.json job and,
for every job that dropped no events, traced events that reconcile
with its counters.json totals (one line per counted event of each
traced kind; recovery args summing to the squashed uops and
chain_extract args to the installed chain lengths).

Usage: check_telemetry.py DIR
"""

import json
import sys
from collections import Counter
from pathlib import Path

EXPECTED_FILES = [
    "trace.json",
    "samples.jsonl",
    "events.jsonl",
    "counters.json",
]

SAMPLE_KEYS = {"job", "cycle", "retired_uops", "ipc", "mpki", "coverage_rate"}
EVENT_KEYS = {"job", "cycle", "kind", "pc", "arg"}

# Traced event kind -> the counter that counts the same events.
KIND_COUNTERS = {
    "recovery": "core.recoveries",
    "chain_extract": "br.chains_extracted",
    "chain_reject": "br.extraction_rejects",
    "dce_sync": "br.syncs",
    "dce_flush": "br.dce_flushes",
    "wpb_merge": "br.merge_points_found",
    "hbt_insert": "br.hbt_inserts",
    "hbt_evict": "br.hbt_evicts",
}
# Traced event kind -> the counter its args sum to.
ARG_SUMS = {
    "recovery": "core.squashed_uops",
    "chain_extract": "br.chain_len_sum",
}


def fail(msg: str) -> None:
    print(f"check_telemetry: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    if len(sys.argv) != 2:
        fail("usage: check_telemetry.py DIR")
    out = Path(sys.argv[1])
    for name in EXPECTED_FILES:
        if not (out / name).is_file():
            fail(f"missing {name}")

    trace = json.loads((out / "trace.json").read_text())
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("trace.json has no traceEvents")
    phases = {e.get("ph") for e in events}
    if "M" not in phases or "C" not in phases:
        fail(f"trace.json missing metadata/counter events: phases {phases}")
    for e in events:
        if e.get("ph") != "M" and not isinstance(e.get("ts"), (int, float)):
            fail(f"trace event without numeric ts: {e}")

    samples = [json.loads(l) for l in (out / "samples.jsonl").read_text().splitlines()]
    if not samples:
        fail("samples.jsonl is empty")
    for s in samples:
        missing = SAMPLE_KEYS - s.keys()
        if missing:
            fail(f"sample missing keys {missing}: {s}")
        if type(s["ipc"]) not in (int, float):
            fail(f"sample ipc is not numeric: {s}")
        if type(s["retired_uops"]) is not int:
            fail(f"sample retired_uops is not an integer: {s}")

    traced = [json.loads(l) for l in (out / "events.jsonl").read_text().splitlines()]
    for e in traced:
        missing = EVENT_KEYS - e.keys()
        if missing:
            fail(f"event missing keys {missing}: {e}")

    counters = json.loads((out / "counters.json").read_text())
    jobs = counters.get("jobs")
    if not isinstance(jobs, list) or not jobs:
        fail("counters.json has no jobs")
    # Events are matched to counters by label, so a repeated label would
    # pool two jobs' events against one job's counters.
    repeated = [label for label, n in Counter(j["job"] for j in jobs).items() if n > 1]
    if repeated:
        fail(f"counters.json repeats job label {repeated[0]!r}")
    retired = sum(j["counters"].get("core.retired_uops", 0) for j in jobs)
    if retired <= 0:
        fail("no retired uops recorded across jobs")
    dropped = sum(j.get("dropped_events", 0) for j in jobs)

    lines = Counter()  # (job, kind) -> traced event count
    arg_sums = Counter()  # (job, kind) -> sum of traced args
    for e in traced:
        lines[(e["job"], e["kind"])] += 1
        arg_sums[(e["job"], e["kind"])] += e["arg"]
    reconciled = 0
    for j in jobs:
        if j.get("dropped_events", 0) != 0:
            continue
        reconciled += 1
        job, counts = j["job"], j["counters"]
        for table, seen, what in [
            (KIND_COUNTERS, lines, "lines"),
            (ARG_SUMS, arg_sums, "arg sum"),
        ]:
            for kind, counter in table.items():
                got, want = seen[(job, kind)], counts.get(counter, 0)
                if got != want:
                    fail(f"{job}: {kind} {what} {got} != {counter} {want}")

    print(
        f"check_telemetry: OK: {len(jobs)} jobs, {len(samples)} samples, "
        f"{len(traced)} events ({dropped} dropped), {retired} retired uops, "
        f"{reconciled} jobs reconciled"
    )


if __name__ == "__main__":
    main()
