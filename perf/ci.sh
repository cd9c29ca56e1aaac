#!/usr/bin/env bash
# Builds the benchmark, runs its tests (which drive all four workloads
# and every layer probe at --quick sizes), then measures this commit and
# compares it with the newest committed trajectory file. Exits non-zero
# if a test fails, an output is wrong, or an end-to-end metric got worse
# by more than its bound. Run from anywhere inside the repository:
#
#     perf/ci.sh            # full: about 2 minutes of measuring
#     perf/ci.sh --quick    # build and tests only
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here"

cargo build --offline --release
cargo test --offline --release --workspace

if [[ "${1:-}" == "--quick" ]]; then
    exit 0
fi

target="${CARGO_TARGET_DIR:-$here/target}"
baseline="$(ls trajectory/BENCH_*.json | sort -V | tail -n 1)"
candidate="$target/recdp-perf-candidate.json"
"$target/release/perf" run --seed 1 --out "$candidate"
"$target/release/perf" compare "$baseline" "$candidate"
