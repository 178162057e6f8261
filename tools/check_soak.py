#!/usr/bin/env python3
"""Validate a figures --faults soak report (the JSON on stdout).

Two modes, matching the CI steps:

  check_soak.py pass REPORT.json
      The equivalence soak must have passed: no failures, every job has
      one fault-free reference plus >= 1 fault schedules, every fault
      run carries a replay seed and retired its reference's fingerprint
      (checked here, not taken from "status"), and at least one fault
      was injected.

  check_soak.py sabotage REPORT.json
      The deliberately corrupted run must have FAILED: the report names
      at least one failure of kind "invariant_violation" with a job
      label, a fault seed, and a non-empty error message (the report is
      machine-readable evidence that machine checks catch real damage).

Exit status 0 when the report matches the expected shape, 1 otherwise.
"""

import json
import sys
from collections import defaultdict
from pathlib import Path


def fail(msg: str) -> None:
    print(f"check_soak: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path: str) -> dict:
    try:
        report = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {path}: {e}")
    for key in ("total_runs", "fault_runs", "passed", "failures", "runs"):
        if key not in report:
            fail(f"report missing {key!r}")
    if report["total_runs"] != len(report["runs"]):
        fail("total_runs disagrees with runs[]")
    return report


def check_pass(report: dict) -> None:
    if not report["passed"] or report["failures"]:
        fail(f"soak reported failures: {report['failures']}")
    if report["fault_runs"] < 1:
        fail("no fault schedules ran")
    by_job = defaultdict(lambda: {"reference": 0, "faulted": 0})
    # Runs come in job order, the reference first, so each fault run is
    # judged against a reference already seen.
    reference_fp = {}
    for run in report["runs"]:
        if run["status"] != "ok":
            fail(f"run not ok in a passing report: {run}")
        if run["fault_seed"] is None:
            by_job[run["job"]]["reference"] += 1
            reference_fp[run["job"]] = run["fingerprint"]
        else:
            by_job[run["job"]]["faulted"] += 1
            if run["job"] not in reference_fp:
                fail(f"fault run before its job's reference: {run}")
            if run["fingerprint"] != reference_fp[run["job"]]:
                fail(
                    f"{run['job']} seed {run['fault_seed']}: fingerprint "
                    f"{run['fingerprint']} != reference {reference_fp[run['job']]}"
                )
    for job, counts in by_job.items():
        if counts["reference"] != 1:
            fail(f"{job}: expected exactly one reference run, got {counts}")
        if counts["faulted"] < 1:
            fail(f"{job}: no fault schedules ran")
    if sum(run["faults_injected"] for run in report["runs"]) == 0:
        fail("no faults were injected anywhere — the soak tested nothing")
    print(
        f"check_soak: OK: {len(by_job)} jobs, "
        f"{report['fault_runs']} fault runs, all equivalent"
    )


def check_sabotage(report: dict) -> None:
    if report["passed"]:
        fail("sabotaged soak passed — machine checks caught nothing")
    violations = [
        f for f in report["failures"] if f.get("kind") == "invariant_violation"
    ]
    if not violations:
        fail(f"no invariant_violation among failures: {report['failures']}")
    for v in violations:
        if not v.get("job"):
            fail(f"violation does not name its job: {v}")
        if v.get("fault_seed") is None:
            fail(f"violation carries no replay seed: {v}")
        if not v.get("error"):
            fail(f"violation has an empty error message: {v}")
    # Partial-failure contract: the fault-free reference runs still
    # completed and reported results despite the sabotaged runs dying.
    references_ok = [
        run
        for run in report["runs"]
        if run["fault_seed"] is None and run["status"] == "ok"
    ]
    if not references_ok:
        fail("no surviving reference results — batch was not partial")
    print(
        f"check_soak: OK: {len(violations)} invariant violation(s) "
        f"caught and reported, {len(references_ok)} clean runs survived"
    )


def main() -> None:
    if len(sys.argv) != 3 or sys.argv[1] not in ("pass", "sabotage"):
        fail("usage: check_soak.py {pass|sabotage} REPORT.json")
    report = load(sys.argv[2])
    if sys.argv[1] == "pass":
        check_pass(report)
    else:
        check_sabotage(report)


if __name__ == "__main__":
    main()
