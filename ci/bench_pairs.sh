#!/usr/bin/env bash
# Alternating parent / new runs of one benchmark workload, and the table a
# host-time claim needs (CONTRIBUTING.md, "Claiming host time").
#
#   ci/bench_pairs.sh <parent-checkout> <workload> <pairs> [--trace 1] [--only <regex>]
#                     [--first-seed N]
#
# <parent-checkout> is a clone of the parent commit (`git clone`, not a
# worktree); the new side is the checkout this script sits in. Each side's
# harness is built `--offline --locked` into its own `.bench_build`. Pair i
# runs both sides on seed N + i - 1 (N is `--first-seed`, 1 by default, so a
# claim can be made on seeds no run used while the change was written), the
# parent first in odd pairs and second in even ones. A run that is not `"correct":true`, or a pair whose sides attempted
# different amounts of work, aborts. Per metric of the result line: both
# medians, both quartile spreads (q3 - q1 over the median), the pairs the new
# side won (ties count for neither), whether the row is *resolved* by
# benchmark/SPREAD.md's rule (the parent's own spread under a third of the
# bound in BENCHMARK.json), and `gain` where CONTRIBUTING.md's claim rule
# holds: the new side won at least nine pairs in ten and the medians differ,
# its way, by more than the parent's quartile spread. A metric that read zero in every run of both sides
# (most per-layer rows of a traced run belong to layers the workload never
# enters) gets no row, and `--only` keeps the rows whose name the regex
# matches (e.g. 'sort|grouped_sum_distinct|wall_s'). Every run made is kept in
# the directory the first output line names. Not run by CI.
set -euo pipefail
[ $# -ge 3 ] || { sed -n '2,7p' "$0" >&2; exit 2; }
parent=$(cd "$1" && pwd); workload=$2; pairs=$3; shift 3
trace=0; only=; first=1
while [ $# -gt 0 ]; do
  case $1 in
    --trace) trace=${2:?--trace needs 0 or 1} ;;
    --only) only=${2:?--only needs a regex} ;;
    --first-seed)
      first=${2:?--first-seed needs a seed}
      [[ $first =~ ^[0-9]+$ ]] || { echo "--first-seed needs a non-negative integer: $first" >&2; exit 2; } ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift 2
done
new=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
seconds=$(python3 -c "import json; print(json.load(open('$new/BENCHMARK.json'))['run_seconds'])")
runs=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
for dir in "$parent" "$new"; do
  CARGO_TARGET_DIR="$dir/.bench_build" cargo build --release --offline --locked \
    --manifest-path "$dir/benchmark/Cargo.toml" 1>&2
done
for i in $(seq 1 "$pairs"); do
  order="parent new"; (( i % 2 )) || order="new parent"
  for side in $order; do
    dir=$parent; [ "$side" = new ] && dir=$new
    CARGO_TARGET_DIR="$dir/.bench_build" bash "$dir/benchmark/run.sh" --workload "$workload" \
      --seed "$((first + i - 1))" --seconds "$seconds" --trace "$trace" | tail -1 >> "$runs/$side.jsonl"
    echo "pair $i: $side done" >&2
  done
done
python3 - "$runs" "$new/BENCHMARK.json" "$workload" "$only" "$first" <<'PY'
import json, re, statistics, sys
runs, spec, workload, only, first = sys.argv[1:]
first = int(first)
spec = json.load(open(spec))
sides = {s: [json.loads(l) for l in open(f"{runs}/{s}.jsonl")] for s in ("parent", "new")}
for i, (p, n) in enumerate(zip(sides["parent"], sides["new"]), 1):
    for side, r in (("parent", p), ("new", n)):
        if r["correct"] is not True or r.get("failed", 0):
            sys.exit(f"pair {i}: the {side} run is not correct: {r}")
    if p["attempted"] != n["attempted"]:
        sys.exit(f"pair {i}: attempted {p['attempted']} (parent) vs {n['attempted']} (new)")
known = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
def stats(v):
    med = statistics.median(v)
    q = statistics.quantiles(v, n=4) if len(v) > 1 else [med] * 3
    return med, (q[2] - q[0]) / med if med else 0.0, q[2] - q[0]
print(f"{workload}: {len(sides['new'])} pairs, seeds {first}..{first + len(sides['new']) - 1}; runs in {runs}")
print(f"{'metric':42} {'parent':>12} {'new':>12} {'change':>8} {'IQR p':>6} {'IQR n':>6} {'won':>6}  status")
for name in sides["parent"][0]["metrics"]:
    p = [r["metrics"][name]["value"] for r in sides["parent"]]
    n = [r["metrics"][name]["value"] for r in sides["new"]]
    if not any(p + n) or not re.search(only, name):
        continue
    lower = known.get(name, {}).get("better", "lower") == "lower"
    won = sum((b < a) if lower else (b > a) for a, b in zip(p, n))
    (pm, ps, p_iqr), (nm, ns, _) = stats(p), stats(n)
    bound = known.get(name, {}).get("bound")
    status = [] if bound is None else ["resolved" if ps < bound / 3 else "unresolved"]
    if bound is not None and (nm - pm) * (1 if lower else -1) > bound * pm:
        status.append("OVER THE BOUND")
    if 10 * won >= 9 * len(p) and (pm - nm) * (1 if lower else -1) > p_iqr:
        status.append("gain")
    status = ", ".join(status)
    change = f"{100 * (nm - pm) / pm:+.1f}%" if pm else "n/a"
    print(f"{name:42} {pm:12.5g} {nm:12.5g} {change:>8} {100*ps:5.1f}% {100*ns:5.1f}% {won:3}/{len(p):<2}  {status}")
PY
