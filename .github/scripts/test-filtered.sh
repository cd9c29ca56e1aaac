#!/usr/bin/env bash
# `cargo test "$@"` for steps that select tests by name filter: fails,
# on top of any test failure, when the filter selected no test at all.
# A filter that matches nothing passes silently otherwise, so a renamed
# test could drop out of its CI step unnoticed.
set -euo pipefail
log="$(mktemp)"
trap 'rm -f "$log"' EXIT
cargo test "$@" 2>&1 | tee "$log"
ran="$(awk '/^test result:/ { n += $4 + $6 } END { print n + 0 }' "$log")"
echo "filter selected $ran test(s)"
if [ "$ran" -eq 0 ]; then
    echo "error: 'cargo test $*' selected zero tests" >&2
    exit 1
fi
