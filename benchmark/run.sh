#!/usr/bin/env bash
# The benchmark's one command: build the benchmark package from source,
# then run it. See README.md next to this file.
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--traced] [--check]
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1   (the driver's form)
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

# One cargo invocation builds both binaries: `manimal-bench` for the
# end-to-end run and `manimal-bench-traced` (the same program behind a
# counting allocator) for the per-layer run.
cargo build --release --offline --quiet --features trace-alloc \
    --manifest-path benchmark/Cargo.toml >&2

bin=manimal-bench
prev=
for arg in "$@"; do
    if [[ "$arg" == "--traced" || ( "$prev" == "--trace" && "$arg" == "1" ) ]]; then
        bin=manimal-bench-traced
    fi
    prev="$arg"
done
exec "$CARGO_TARGET_DIR/release/$bin" "$@"
