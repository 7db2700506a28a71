#!/usr/bin/env bash
# Size ceilings. Each line of ci/budget.tsv is `metric<TAB>ceiling<TAB>how`,
# where `how` is one of these measures:
#   nontest FILE   lines of FILE above its first top-level `#[cfg(test)]`
#                  that gates more than a one-line `mod x;`
#   lines DIR [SKIP...]  the `nontest` lines of every .rs file under DIR but
#                  the test-only files SKIP...
#   unsafe DIR...  lines of the .rs files under DIR... that name `unsafe`,
#                  not counting `//` comment lines
#   bytes FILE     the size of FILE
#   files REGEX DIR...  the number of .rs files under DIR... with a line
#                  that matches the extended REGEX
#   panics DIR [SKIP...]  those of the `lines` that call `.unwrap()`,
#                  `.expect(`, `panic!`, `unreachable!` or `todo!`, not
#                  counting `//` comment lines
# The gate fails when a value is over its ceiling (raising a ceiling needs a
# CHANGES.md line that says why), and when a ceiling is looser than its value
# by more than SLACK_PCT percent, so a deletion must tighten it.
#
#   ci/budget.sh           check every line
#   ci/budget.sh --print   the size table ROADMAP.md quotes: the `nontest`
#                          lines as a markdown table, then the other metrics
set -euo pipefail
cd "$(dirname "$0")/.."
budget=ci/budget.tsv
SLACK_PCT=2

nontest_lines() {
  awk 'gate { gate = 0; if ($0 !~ /^(pub(\(crate\))? )?mod [a-z_0-9]+;$/) exit; print cfg }
       /^#\[cfg\(test\)\]/ { gate = 1; cfg = $0; next }
       { print }' "$1"
}
nontest() { nontest_lines "$1" | wc -l | tr -d ' '; }
tree_lines() {
  find "$1" -name '*.rs' | sort | while read -r f; do
    [[ " ${*:2} " == *" $f "* ]] || nontest_lines "$f"
  done
}
lines() { tree_lines "$@" | wc -l | tr -d ' '; }
unsafe() { find "$@" -name '*.rs' -exec cat {} + | grep -E '\bunsafe\b' | grep -cvE '^\s*//' || true; }
bytes() { wc -c <"$1" | tr -d ' '; }
files() { find "${@:2}" -name '*.rs' -exec grep -lE "$1" {} + | wc -l || true; }
panics() {
  tree_lines "$@" | grep -vE '^\s*//' | grep -cE '\.unwrap\(\)|\.expect\(|\b(panic|unreachable|todo)!' || true
}

# measure <how>: the value of one budget line.
measure() {
  local args
  read -ra args <<<"$1"
  case ${args[0]} in
    nontest | lines | unsafe | bytes | files | panics) "${args[@]}" ;;
    *) echo "budget.sh: unknown measure '${args[0]}' in $budget" >&2; exit 2 ;;
  esac
}

# Thousands separated by a space, as ROADMAP.md writes them: 2 094.
grouped() { sed -E ':a; s/([0-9])([0-9]{3})($| )/\1 \2\3/; ta' <<<"$1"; }

rows() { grep -vE '^\s*(#|$)' "$budget"; }

if [ "${1:-}" = --print ]; then
  echo '| file | non-test lines |'
  echo '|---|---:|'
  while IFS=$'\t' read -r _ _ how; do
    [ "${how%% *}" = nontest ] || continue
    file=${how#nontest }
    echo "| \`${file#crates/}\` | $(grouped "$(measure "$how")") |"
  done < <(rows)
  echo
  while IFS=$'\t' read -r metric _ how; do
    [ "${how%% *}" != nontest ] || continue
    echo "- \`$metric\`: $(grouped "$(measure "$how")")"
  done < <(rows)
  exit 0
fi
[ $# -eq 0 ] || { sed -n '2,20p' "$0" >&2; exit 2; }

fail=0
while IFS=$'\t' read -r metric ceiling how; do
  [[ $ceiling =~ ^[0-9]+$ && -n $how ]] || { echo "$budget: malformed line for '$metric'"; fail=1; continue; }
  value=$(measure "$how")
  if ((value > ceiling)); then
    echo "$metric: $value, over its ceiling $ceiling"
    fail=1
  elif (((ceiling - value) * 100 > SLACK_PCT * ceiling)); then
    echo "$metric: $value, more than $SLACK_PCT % under its ceiling $ceiling: tighten it"
    fail=1
  else
    echo "$metric: $value (ceiling $ceiling)"
  fi
done < <(rows)
exit "$fail"
