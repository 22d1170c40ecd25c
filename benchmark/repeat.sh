#!/usr/bin/env bash
# Run two full sets of end-to-end runs on this commit and print, per
# workload and end-to-end metric, both sets' medians, how much worse the
# second is, each set's spread and the bound — the checks the driver
# makes before it accepts the benchmark. Exits non-zero when a pair is
# outside its bound.
#
#   benchmark/repeat.sh [RUNS_PER_SET]   (default 10, each with its own seed)
#
# The table goes to stdout; `benchmark/REPEATABILITY.md` is this output
# for the commit that added the benchmark.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
runs="${1:-10}"
dir=benchmark/out/repeat
rm -rf "$dir"
mkdir -p "$dir"

workloads=(select-sweep agg-project agg-spill join service-hot service-miss)
for set in 1 2; do
    for workload in "${workloads[@]}"; do
        for ((i = 1; i <= runs; i++)); do
            seed=$((set * 100 + i))
            echo "set $set $workload seed $seed" >&2
            benchmark/run.sh --workload "$workload" --seed "$seed" --trace 0 \
                | tail -n 1 >"$dir/set$set-$workload-$seed.json"
        done
    done
done
benchmark/run.sh --compare-sets "$dir"
