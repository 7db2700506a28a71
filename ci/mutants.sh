#!/usr/bin/env bash
# The mutant kill matrix: which gating check catches which one-line bug.
#
#   ci/mutants.sh [MUTANT...]
#
# MUTANT is a file name under ci/mutants/ with or without `.mut` (every
# mutant when none is given). Each mutant is four lines: a `#` line naming
# the layer and the behaviour it breaks, `file: <path>`, `- <text>` and
# `+ <text>`. Applying it replaces the one occurrence of <text> after `- `
# in <path> with the text after `+ `.
#
# The script never touches the caller's tree. It exports HEAD's committed
# files (`git archive`) into a fresh directory under $TMPDIR and builds
# every mutant there into one target directory ($CARGO_TARGET_DIR when set,
# else one next to the copy). It first runs every check on the unmutated
# copy, which must pass all of them; then, per mutant: apply, run every
# check, revert. The checks are the gating ones of CI:
#   - `cargo test --workspace --release --no-fail-fast` (a killer is the
#     failing test, `<source file>::<test path>`, or the source file of a
#     test binary that failed without naming a test);
#   - `gpu_lint --deny-warnings`, whose summary line must also match the
#     unmutated run's (`gpu_lint:<ids>`, the rule ids its output names,
#     so a kill counts for the pass family that reported it; `gpu_lint`
#     when it names none);
#   - `fault_smoke` at GPU_SIM_FAULT_RATE=0.2 (`fault_smoke`) and
#     `cost_smoke` (`cost_smoke`);
#   - the `declarative_query` example (`example:declarative_query`);
#   - `benchmark/run.sh --workload W --seconds 1 --trace 0` for each of the
#     five workloads, and queries_plan on seed 12 as CI runs it
#     (`harness:W`, `harness:queries_plan:seed12`): a run that exits
#     non-zero or does not print `"correct":true` kills.
# A mutant whose `- ` text does not occur exactly once, or that does not
# compile, stops the run (exit 1).
#
# stdout is the sorted `mutant<TAB>killer` lines, one per kill, and
# `mutant<TAB>survived` for a mutant no check kills; ci/mutants.kills is
# that output for the whole set at the commit that last changed it.
# Progress goes to stderr. Each mutant rebuilds what depends on its file,
# in the workspace and in the harness: a full run takes one to two hours on
# two cores (less with CARGO_INCREMENTAL=1 and a reused target directory).
set -euo pipefail

repo=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)
mutdir=$repo/ci/mutants
if [ $# -eq 0 ]; then
  set -- "$mutdir"/*.mut
fi
mutants=()
for m in "$@"; do
  name=$(basename "${m%.mut}")
  [ -f "$mutdir/$name.mut" ] || { echo "mutants.sh: no mutant $mutdir/$name.mut" >&2; exit 2; }
  mutants+=("$name")
done

work=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT
tree=$work/tree
mkdir "$tree"
git -C "$repo" archive HEAD | tar -x -C "$tree"
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$work/target}
bin=$CARGO_TARGET_DIR/release
log() { echo "mutants.sh: $*" >&2; }

# field <mutant> <prefix>: the text after "<prefix> " on the mutant's line.
field() {
  local line
  line=$(grep -m1 "^$2 " "$mutdir/$1.mut") || { log "$1: no '$2 ' line"; exit 1; }
  printf '%s' "${line#"$2 "}"
}

# apply <mutant>: swap the `- ` text for the `+ ` text in the copy, after
# checking that it occurs exactly once.
apply() {
  local file minus plus
  file=$(field "$1" file:)
  minus=$(field "$1" -)
  plus=$(field "$1" +)
  MINUS=$minus PLUS=$plus perl -0777 -i -pe '
    my $n = () = /\Q$ENV{MINUS}\E/g;
    die "occurs $n times\n" unless $n == 1;
    s/\Q$ENV{MINUS}\E/$ENV{PLUS}/;
  ' "$tree/$file" || { log "$1: its '- ' text must occur once in $file"; exit 1; }
}

# The test binaries of the last build, as "<executable name> <source file>".
test_targets() {
  python3 -c '
import json, os, sys
root = sys.argv[1]
for line in sys.stdin:
    m = json.loads(line)
    if m.get("reason") == "compiler-artifact" and m.get("executable") and m["profile"]["test"]:
        print(os.path.basename(m["executable"]), os.path.relpath(m["target"]["src_path"], root))
' "$tree"
}

# Every check on the copy as it stands; prints one killer per line.
run_checks() {
  local out=$work/out
  mkdir -p "$out"
  (cd "$tree" && cargo test --workspace --release --no-run --message-format=json-render-diagnostics -q 2>"$out/build.err") \
    | test_targets >"$out/targets" || return 3
  local rc=0
  (cd "$tree" && timeout 1800 cargo test --workspace --release --no-fail-fast 2>&1) >"$out/test" || rc=$?
  [ "$rc" -ne 124 ] || echo cargo-test:timeout
  # Attribute each `test X ... FAILED` to the binary cargo said it was
  # running; a binary that failed without naming a test is its own killer.
  awk -v tf="$out/targets" '
    BEGIN { while ((getline l < tf) > 0) { split(l, f, " "); src[f[1]] = f[2] } }
    /^ *Running / {
      exe = $NF; gsub(/[()]/, "", exe); n = split(exe, p, "/"); cur = src[p[n]]
      if (cur == "") cur = $2
      next
    }
    /^ *Doc-tests / { cur = "doc-tests " $2; next }
    /^test .* \.\.\. FAILED$/ { sub(/^test /, ""); sub(/ \.\.\. FAILED$/, ""); print cur "::" $0; named[cur] = 1; next }
    /^test result: FAILED/ { failed[cur] = 1 }
    /^error: test failed, to rerun pass/ { failed[cur] = 1 }
    END { for (c in failed) if (!(c in named)) print c }
  ' "$out/test"
  if ! (cd "$tree" && timeout 600 "$bin/gpu_lint" --deny-warnings >"$out/lint" 2>&1) \
    || ! grep -qxF "$lint_summary" "$out/lint"; then
    local ids
    ids=$(grep -oE '\bGL[0-9]{3}\b' "$out/lint" | sort -u | paste -sd, -)
    echo "gpu_lint${ids:+:$ids}"
  fi
  (cd "$tree" && GPU_SIM_FAULT_RATE=0.2 timeout 600 "$bin/fault_smoke" >/dev/null 2>&1) || echo fault_smoke
  (cd "$tree" && timeout 600 "$bin/cost_smoke" >/dev/null 2>&1) || echo cost_smoke
  (cd "$tree" && timeout 600 "$bin/examples/declarative_query" >/dev/null 2>&1) || echo example:declarative_query
  local w
  for w in grid_full ops_scan queries_plan queries_scan queries_faulted queries_plan:seed12; do
    local args=(--workload "${w%%:*}" --seconds 1 --trace 0)
    [ "$w" = "${w%%:*}" ] || args+=(--seed 12)
    (cd "$tree" && timeout 900 bash benchmark/run.sh "${args[@]}" 2>>"$out/harness.err" | tail -1) \
      | grep -q '"correct":true' || echo "harness:$w"
  done
}

log "work directory $work, target $CARGO_TARGET_DIR"
log "unmutated HEAD: building and running every check"
(cd "$tree" && cargo build --release -q -p bench --bin gpu_lint 2>/dev/null) || true
lint_summary=$(cd "$tree" && "$bin/gpu_lint" --deny-warnings 2>/dev/null | tail -1) || true
base=$(run_checks) || { log "HEAD does not build"; exit 1; }
if [ -n "$base" ]; then
  log "HEAD fails these checks, so they cannot tell mutants apart:"
  echo "$base" >&2
  exit 1
fi

results=$work/results
: >"$results"
for name in "${mutants[@]}"; do
  file=$(field "$name" file:)
  cp "$tree/$file" "$work/orig"
  apply "$name"
  start=$SECONDS
  killers=$(run_checks) || { log "$name does not compile:"; tail -20 "$work/out/build.err" >&2; exit 1; }
  cp "$work/orig" "$tree/$file"
  if [ -z "$killers" ]; then
    printf '%s\tsurvived\n' "$name" >>"$results"
  else
    printf '%s\n' "$killers" | sed "s/^/$name\t/" >>"$results"
  fi
  log "$name: $(printf '%s' "$killers" | grep -c . || true) killer(s) in $((SECONDS - start)) s"
done
LC_ALL=C sort -u "$results"
