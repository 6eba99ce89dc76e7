#!/usr/bin/env bash
# Non-test line count per crate: for each `src/**/*.rs` file, the lines
# above its first `#[cfg(test)]` (the whole file when it has none).
#
#   scripts/loc.sh                  # every crate under crates/, and a total
#   scripts/loc.sh core analysis    # only these crates, and their total
#
# Lines are counted as `wc -l` counts them: blank lines and comments too.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
    set -- $(ls crates)
fi

total=0
for crate in "$@"; do
    dir="crates/$crate/src"
    [ -d "$dir" ] || { echo "no such crate: $crate" >&2; exit 1; }
    n=0
    while IFS= read -r file; do
        lines=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        n=$((n + lines))
    done < <(find "$dir" -name '*.rs' | sort)
    printf '%-12s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
