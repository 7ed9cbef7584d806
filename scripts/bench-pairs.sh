#!/bin/sh
# bench-pairs.sh <parent-checkout> <workload> <pairs> [out-dir] — the
# paired measurement a PR that touches a packet path has to show:
# `bash bench/run.sh` on a checkout of the parent commit and on this
# working tree, <pairs> times with seeds 1…<pairs>, alternating which
# side runs first, each side appending to its own --out file, then
# `--compare` of the two files (parent first, so "better" means this tree
# is). Uses bench/ as it is on each side; run length and everything else
# come from BENCHMARK.json's defaults.
#
#   git clone -q . /tmp/parent && git -C /tmp/parent checkout -q HEAD~1
#   scripts/bench-pairs.sh /tmp/parent sim_grid_bulk 10
#
# The two files stay in out-dir (default: a fresh temporary directory,
# printed at the end) as <workload>-parent.jsonl and <workload>-change.jsonl,
# so more pairs can be appended by running again with the same out-dir.
set -eu

if [ $# -lt 3 ]; then
    echo "usage: $0 <parent-checkout> <workload> <pairs> [out-dir]" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
workload=$2
pairs=$3
cd "$(dirname "$0")/.."
change=$(pwd)
if [ ! -f "$parent/bench/run.sh" ]; then
    echo "$0: $parent is not a checkout of this repository" >&2
    exit 2
fi
out=${4:-$(mktemp -d)}
mkdir -p "$out"
out=$(cd "$out" && pwd)

run() { # run <checkout> <side> <seed>
    (cd "$1" && bash bench/run.sh --workload "$workload" --seed "$3" --trace 0 \
        --out "$out/$workload-$2.jsonl") | grep -E '^(goodput_mbps|cpu_ns_per_pkt|allocs_per_pkt) ' |
        awk -v side="$2" -v seed="$3" '{ printf "  seed %s %-6s %-16s %s %s\n", seed, side, $1, $2, $3 }'
}

seed=1
while [ "$seed" -le "$pairs" ]; do
    if [ $((seed % 2)) -eq 1 ]; then
        run "$parent" parent "$seed"
        run "$change" change "$seed"
    else
        run "$change" change "$seed"
        run "$parent" parent "$seed"
    fi
    seed=$((seed + 1))
done

bash bench/run.sh --compare "$out/$workload-parent.jsonl" "$out/$workload-change.jsonl"
echo "result files: $out/$workload-parent.jsonl $out/$workload-change.jsonl"
