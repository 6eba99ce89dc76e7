#!/usr/bin/env bash
# Output-equivalence listing for `qutes lint`, the counterpart of
# scripts/run_matrix.sh.
#
# Lints every example program (examples/programs/), every lint-corpus
# program (tests/lint_corpus/) and every interpreter microbenchmark
# (tests/interp_programs/), once with the text report and once with
# --lint-json, and prints one line per run: the arguments, the exit
# status and a hash of stdout. A change that must not alter any lint
# output is checked by running the listing on both commits and diffing:
#
#   scripts/lint_matrix.sh path/to/parent/qutes > before.txt
#   scripts/lint_matrix.sh > after.txt
#   diff before.txt after.txt && echo identical
#
# The argument is the `qutes` binary to run (default:
# target/release/qutes, built by `cargo build --release`). Program paths
# are printed relative to the repository root. The last line is the run
# count.
#
# The listing of the current tree is committed as
# tests/golden/lint_matrix.txt, and CI diffs a fresh run against it. A
# change that alters some lint output on purpose refreshes it in a
# commit of its own that says which lines changed and why:
#
#   cargo build --release -p qutes-cli
#   scripts/lint_matrix.sh > tests/golden/lint_matrix.txt
set -euo pipefail
cd "$(dirname "$0")/.."

qutes="${1:-target/release/qutes}"
if [[ ! -x "$qutes" ]]; then
    echo "lint_matrix: no executable at $qutes (cargo build --release first)" >&2
    exit 2
fi

runs=0
for prog in examples/programs/*.qut tests/lint_corpus/*.qut tests/interp_programs/*.qut; do
    for json in "" --lint-json; do
        args=(lint "$prog")
        if [[ -n "$json" ]]; then
            args+=("$json")
        fi
        status=0
        hash=$("$qutes" "${args[@]}" 2>/dev/null | sha256sum) || status=$?
        echo "${args[*]} exit=$status ${hash%% *}"
        runs=$((runs + 1))
    done
done
echo "runs=$runs"
