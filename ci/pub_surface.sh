#!/usr/bin/env bash
# Dead-surface gate: every `pub fn` / `pub struct` / `pub enum` declared in
# crates/<c>/src must be named outside crates/<c>/src -- by another crate, a
# bin or integration test of its own, src/, examples/, tests/ or
# benchmark/src -- or, for a type, appear in a `pub` signature or field of its
# own crate. Anything else should be `pub(crate)`, where rustc's dead_code lint
# watches it. Names with a reason to stay are listed in ci/pub_surface.allow
# (`name  # reason`); the gate also fails on an allow line that no longer
# applies, so the list can only shrink.
set -euo pipefail
cd "$(dirname "$0")/.."
allow=ci/pub_surface.allow
orphans=$(
  for dir in crates/*/; do
    crate=${dir%/}
    mapfile -t callers < <(find crates src examples tests benchmark/src -name '*.rs' \
      \( ! -path "$crate/src/*" -o -path "$crate/src/bin/*" \))
    grep -rhoE '^\s*pub (const |unsafe )?(fn|struct|enum) \w+' "$crate/src" --include='*.rs' |
      awk '{print $(NF-1), $NF}' | sort -u | while read -r kind name; do
      grep -qw -- "$name" "${callers[@]}" && continue
      [ "$kind" != fn ] && grep -rhw --include='*.rs' -- "$name" "$crate/src" |
        grep -vE "pub ((struct|enum) $name\b|use )" | grep -E '^\s*(pub |\) -> )' >/dev/null && continue
      echo "$name"
    done
  done | sort -u
)
allowed=$(sed -E 's/\s*#.*//; /^\s*$/d' "$allow" | sort -u)
if grep -vE '^\s*(#|$)' "$allow" | grep -vE '\S+\s+# (E[0-9]+|A[0-9]+|trait method)'; then
  echo "^ allow-list lines without a '# E-nn' / '# trait method' reason" >&2
  exit 1
fi
new=$(comm -23 <(echo "$orphans") <(echo "$allowed"))
stale=$(comm -13 <(echo "$orphans") <(echo "$allowed"))
[ -z "$new" ] || { echo "pub items no other crate, bin, example or test names (narrow to pub(crate) or delete):"; echo "$new" | sed 's/^/  /'; }
[ -z "$stale" ] || { echo "stale ci/pub_surface.allow lines (the item is gone or has a caller now -- remove them):"; echo "$stale" | sed 's/^/  /'; }
[ -z "$new$stale" ]
