#!/usr/bin/env bash
# Step-declaration gate: what a `physical::Step` variant reads, writes, is
# called and how its rows relate is declared once, next to the enum
# (`Step::{reads, writes, label, shape}`). So outside test code only
# crates/core/src/{physical,costing,optimizer}.rs may name a variant as
# `Step::<Variant>` -- the executor and explain(), the coster's recipes, and
# the optimizer that emits it. Any other non-test site must be listed in
# ci/step_sites.allow (`path Variant  # reason`). Test code is skipped:
# files under tests/, files named *tests.rs, and everything after a file's
# first top-level `#[cfg(test)]`. The gate also fails on an allow line that
# no longer applies, so the list can only shrink.
set -euo pipefail
cd "$(dirname "$0")/.."
allow=ci/step_sites.allow
core=crates/core/src
variants=$(awk '/^pub enum Step \{/ { on = 1; next } on && /^}/ { exit } on && /^    [A-Z]/ { print $1 }' \
  "$core/physical.rs")
[ -n "$variants" ] || { echo "no Step variants found in $core/physical.rs" >&2; exit 1; }
alt=$(echo "$variants" | paste -sd'|')
sites=$(
  find crates -name '*.rs' ! -path '*/tests/*' ! -name '*tests.rs' | sort | while read -r f; do
    case "$f" in "$core"/physical.rs | "$core"/costing.rs | "$core"/optimizer.rs) continue ;; esac
    awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$f" |
      { grep -ohE "Step::($alt)\\b" || true; } | sed "s|^Step::|$f |"
  done | sort -u
)
if grep -vE '^\s*(#|$)' "$allow" | grep -vE '^\S+\s+\S+\s+# \S'; then
  echo "^ allow-list lines without a '# reason'" >&2
  exit 1
fi
allowed=$(sed -E 's/\s*#.*//; /^\s*$/d' "$allow" | awk '{ print $1, $2 }' | sort -u)
new=$(comm -23 <(echo "$sites") <(echo "$allowed") | sed '/^$/d')
stale=$(comm -13 <(echo "$sites") <(echo "$allowed") | sed '/^$/d')
[ -z "$new" ] || {
  echo "non-test code naming a Step variant outside physical.rs / costing.rs / optimizer.rs"
  echo "(call Step::{reads, writes, label, shape} instead, or list the site with a reason):"
  echo "$new" | sed 's/^/  /'
}
[ -z "$stale" ] || {
  echo "stale ci/step_sites.allow lines (the site is gone -- remove them):"
  echo "$stale" | sed 's/^/  /'
}
[ -z "$new$stale" ]
