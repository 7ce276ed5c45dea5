#!/usr/bin/env bash
# Repeat gate for the SWGOMP job server: run every suite that dispatches
# through it 20 times, in debug and in release. A single failure fails the
# gate, so a flaky scheduling or lifetime bug cannot hide behind a lucky run.
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS=20

run_suites() {
    cargo test "$@" -q -p sunway-sim --lib
    cargo test "$@" -q -p grist-repro \
        --test integration_substrate --test integration_parallel \
        --test integration_trace --test integration_ml_batch
    cargo test "$@" -q -p grist-core --test integration_kernels
}

for profile in debug release; do
    flags=()
    if [ "$profile" = release ]; then
        flags=(--release)
    fi
    for run in $(seq "$RUNS"); do
        echo "-- $profile run $run/$RUNS"
        run_suites "${flags[@]}"
    done
done
echo "pool suites: $RUNS/$RUNS runs passed in debug and release"
