#!/usr/bin/env bash
# Output-equivalence matrix for `qutes run`.
#
# Runs every example program under examples/programs/ over
#   seeds 1-4 × shots {0, 1, 100} × noise {off, 0.002}
#   × opt level {0, 1, 2} × backend {auto, statevector}
# (1,728 runs for the 12 shipped examples) and prints one line per run:
# the arguments, the exit status and a hash of stdout. A change that
# must not alter any output is checked by running the matrix on both
# commits and diffing the two listings:
#
#   scripts/run_matrix.sh path/to/parent/qutes > before.txt
#   scripts/run_matrix.sh > after.txt
#   diff before.txt after.txt && echo identical
#
# The argument is the `qutes` binary to run (default:
# target/release/qutes, built by `cargo build --release`). Program paths
# are printed relative to the repository root, so listings made from two
# checkouts compare line by line. The last line is the run count.
#
# The listing of the current tree is committed as
# tests/golden/run_matrix.txt, and CI diffs a fresh run against it. A
# change that alters some output on purpose (a new example, a changed
# histogram) refreshes it in a commit of its own that says which lines
# changed and why:
#
#   cargo build --release -p qutes-cli
#   scripts/run_matrix.sh > tests/golden/run_matrix.txt
set -euo pipefail
cd "$(dirname "$0")/.."

qutes="${1:-target/release/qutes}"
if [[ ! -x "$qutes" ]]; then
    echo "run_matrix: no executable at $qutes (cargo build --release first)" >&2
    exit 2
fi

runs=0
for prog in examples/programs/*.qut; do
    for seed in 1 2 3 4; do
        for shots in 0 1 100; do
            for noise in 0 0.002; do
                for opt in 0 1 2; do
                    for backend in auto statevector; do
                        args=(run "$prog" --seed "$seed" --shots "$shots"
                              --opt-level "$opt" --backend "$backend")
                        if [[ "$noise" != 0 ]]; then
                            args+=(--noise "$noise")
                        fi
                        status=0
                        hash=$("$qutes" "${args[@]}" 2>/dev/null | sha256sum) || status=$?
                        echo "${args[*]} exit=$status ${hash%% *}"
                        runs=$((runs + 1))
                    done
                done
            done
        done
    done
done
echo "runs=$runs"
