#!/usr/bin/env bash
# Non-test source size per crate:
#
#     scripts/loc.sh [CRATE...]
#
# e.g. `scripts/loc.sh pimdl-engine pimdl-bench`; with no CRATE, every crate
# under crates/. For each `crates/CRATE/src/**.rs` file it counts the lines
# that are not blank and do not start (after indentation) with `//`, up to
# the file's first line-initial `#[cfg(test)]`, and prints the total per
# crate, then the sum over the crates named. check.sh prints it for every
# crate at its end, as a report, not a gate.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -eq 0 ]; then
    set -- $(ls crates)
fi
sum=0
for crate in "$@"; do
    [ -d "crates/$crate/src" ] || { echo "loc.sh: no crate $crate" >&2; exit 1; }
    lines=$(find "crates/$crate/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk '
            FNR == 1 { counting = 1 }
            /^#\[cfg\(test\)\]/ { counting = 0 }
            counting && !/^[ \t]*(\/\/|$)/ { n++ }
            END { print n + 0 }' | awk '{ s += $1 } END { print s + 0 }')
    printf '%7d  %s\n' "$lines" "$crate"
    sum=$((sum + lines))
done
printf '%7d  total\n' "$sum"
