#!/usr/bin/env python3
"""Validate a figures --telemetry-out directory.

Checks that every exporter's output parses (Chrome trace JSON, JSONL)
and that the views agree with each other: typed sample columns, event
lines covered by counters.json totals, and nonzero progress counters.

Usage: check_telemetry.py DIR
"""

import json
import sys
from pathlib import Path

EXPECTED_FILES = [
    "trace.json",
    "samples.jsonl",
    "events.jsonl",
    "counters.json",
]

SAMPLE_KEYS = {"job", "cycle", "retired_uops", "ipc", "mpki", "coverage_rate"}
EVENT_KEYS = {"job", "cycle", "kind", "pc", "arg"}


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
    retired = sum(j["counters"].get("core.retired_uops", 0) for j in jobs)
    if retired <= 0:
        fail("no retired uops recorded across jobs")
    dropped = sum(j.get("dropped_events", 0) for j in jobs)
    extracted = sum(j["counters"].get("br.chains_extracted", 0) for j in jobs)
    event_kinds = {e["kind"] for e in traced}
    if extracted > 0 and dropped == 0 and "chain_extract" not in event_kinds:
        fail("chains extracted but no chain_extract events traced")

    print(
        f"check_telemetry: OK: {len(jobs)} jobs, {len(samples)} samples, "
        f"{len(traced)} events ({dropped} dropped), {retired} retired uops"
    )


if __name__ == "__main__":
    main()
