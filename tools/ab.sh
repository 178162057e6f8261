#!/usr/bin/env bash
# A/B comparison of two revisions on the repository benchmark.
#
#   tools/ab.sh BASE HEAD [WORKLOAD] [PAIRS] [SEED] [trace]
#
# BASE and HEAD are git revisions (a commit, a branch, HEAD~1 ...).
# WORKLOAD defaults to h2p-br, PAIRS to 10 and SEED to the held-out 4242.
# A sixth argument `trace` runs traced pairs (`--trace 1`) and reports
# BENCHMARK.json's per-layer metrics instead of the end-to-end ones.
#
# Each revision is exported with `git archive` into a scratch directory
# and its benchmark is built there with its own target directory, so the
# checkout and its `benchmark/` are left untouched. The script then runs
# PAIRS pairs of untraced benchmark runs at BENCHMARK.json's run_seconds,
# alternating which side runs first, and prints for every end-to-end
# metric (every per-layer metric the workload runs, when traced) each
# side's median and quartiles, the ratio of the medians, and how many
# pairs HEAD won, plus each side's attempted and failed checks.
# Look at the whole distribution, not one run: a win needs most pairs and
# a median gap wider than BASE's interquartile spread.
#
# Run it from inside the repository on an otherwise idle machine. Set
# AB_DIR to keep the builds and raw results in a directory of your choice
# (default: a new temporary directory, printed at the end).
set -euo pipefail

if [[ $# -lt 2 ]]; then
    sed -n '2,10p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
base=$1
head=$2
workload=${3:-h2p-br}
pairs=${4:-10}
seed=${5:-4242}
case ${6:-} in
    '') trace=0 ;;
    trace) trace=1 ;;
    *)
        echo "the sixth argument must be 'trace', got '$6'" >&2
        exit 2
        ;;
esac

root=$(git rev-parse --show-toplevel)
work=${AB_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")}
mkdir -p "$work"

for side in base head; do
    rev=${!side}
    dir=$work/$side
    rm -rf "$dir"
    mkdir -p "$dir/src"
    git -C "$root" archive "$rev" | tar -x -C "$dir/src"
    echo "building $side ($rev) in $dir" >&2
    (cd "$dir/src" && CARGO_TARGET_DIR=$dir/target cargo build --offline --release \
        --quiet --manifest-path benchmark/Cargo.toml)
done

seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$work/head/src/BENCHMARK.json")

run_side() {
    local side=$1 pair=$2
    echo "pair $pair: $side" >&2
    (cd "$work/$side/src" && CARGO_TARGET_DIR=$work/$side/target cargo run --offline \
        --release --quiet --manifest-path benchmark/Cargo.toml -- --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace "$trace") | tail -n 1 >"$work/$side.$pair.json"
}

for ((pair = 1; pair <= pairs; pair++)); do
    if ((pair % 2)); then
        run_side base "$pair"
        run_side head "$pair"
    else
        run_side head "$pair"
        run_side base "$pair"
    fi
done

python3 - "$work" "$pairs" "$work/head/src/BENCHMARK.json" "$base" "$head" "$workload" "$seed" \
    "$trace" <<'EOF'
import json
import statistics
import sys

work, pairs, bench_path, base, head, workload, seed, trace = sys.argv[1:]
pairs = int(pairs)
kind = "per_layer" if trace == "1" else "end_to_end"
bench = json.load(open(bench_path))
runs = {
    side: [json.load(open(f"{work}/{side}.{p}.json")) for p in range(1, pairs + 1)]
    for side in ("base", "head")
}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


# A layer the workload does not run reads 0 in every run; leave it out.
reported = [
    m for m in bench[kind]
    if all(m["name"] in r["metrics"] for side in runs.values() for r in side)
    and any(r["metrics"][m["name"]]["value"] for side in runs.values() for r in side)
]
width = max(len(m["name"]) for m in reported)
print(f"{workload}, seed {seed}, {pairs} {'traced ' if kind == 'per_layer' else ''}pairs: "
      f"base {base} vs head {head}")
print(f"{'metric':<{width}} {'base q1':>10} {'median':>10} {'q3':>10}   "
      f"{'head q1':>10} {'median':>10} {'q3':>10}   {'ratio':>7} {'wins':>6}")
for m in reported:
    name, lower = m["name"], m["better"] == "lower"
    b = [r["metrics"][name]["value"] for r in runs["base"]]
    h = [r["metrics"][name]["value"] for r in runs["head"]]
    bq, hq = quartiles(b), quartiles(h)
    wins = sum(1 for x, y in zip(b, h) if (y < x if lower else y > x))
    ratio = hq[1] / bq[1] if bq[1] else float("nan")
    print(f"{name:<{width}} {bq[0]:>10.4g} {bq[1]:>10.4g} {bq[2]:>10.4g}   "
          f"{hq[0]:>10.4g} {hq[1]:>10.4g} {hq[2]:>10.4g}   {ratio:>7.3f} {wins:>3}/{pairs}")
for side in ("base", "head"):
    attempted = [r["attempted"] for r in runs[side]]
    failed = [r["failed"] for r in runs[side]]
    print(f"{side}: attempted {attempted}, failed {failed}")
print(f"raw results: {work}")
EOF
