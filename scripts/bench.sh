#!/bin/sh
# bench.sh — the repository performance harness.
#
# Runs the internal/perf micro benchmarks (wire encode/decode, sim
# event loop, netem link transit) plus the smoke-grid macro benchmark,
# and writes the numbers to a BENCH_*.json trajectory file so every PR
# can compare its hot-path cost against the previous one. Full runs
# also measure live-mode loopback throughput: two-process mpq-live
# transfers over real UDP sockets, a {1,2 paths} x {10 MB, 100 MB}
# matrix. Each client's metrics land under "live_loopback.runs", next
# to the PR 7 pre-fast-lane baseline; runs are null when the
# environment denies UDP.
#
#   scripts/bench.sh            # full run, JSON on stdout
#   scripts/bench.sh -smoke     # CI-sized sanity pass, no JSON
#   scripts/bench.sh -o F.json  # full run, write to F.json
#
# There is no default output file: a run that names none prints its
# JSON to standard output (progress goes to standard error), so a stale
# trajectory file is never overwritten by accident. The repository
# benchmark proper — workloads, end-to-end metrics, noise-aware
# comparison — is bench/run.sh (see BENCHMARK.json, bench/README.md).
#
# The emitted JSON carries a "baseline" block: the same benchmarks
# measured at the commit before the PR 3 hot-path pass (8e0e2f0, struct
# allocation + container/heap + per-packet closures), so the deltas are
# readable without digging through git history.
set -eu

cd "$(dirname "$0")/.."

out=
mode=full
while [ $# -gt 0 ]; do
    case "$1" in
    -smoke) mode=smoke ;;
    -o) out=$2; shift ;;
    *) echo "usage: scripts/bench.sh [-smoke] [-o file.json]" >&2; exit 2 ;;
    esac
    shift
done

micro='^(BenchmarkPacketEncode|BenchmarkPacketDecode|BenchmarkClockScheduleRun|BenchmarkClockSameTimeFIFO|BenchmarkLinkTransit)$'
if [ "$mode" = smoke ]; then
    microtime=100x
    gridtime=1x
else
    microtime=2s
    gridtime=3x
fi

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

# Progress and benchmark output go to stderr; stdout carries only the
# JSON of a full run without -o.
exec 3>&1 1>&2

echo "== micro benchmarks (-benchtime=$microtime)"
go test ./internal/perf -run '^$' -bench "$micro" -benchmem -benchtime "$microtime" | tee -a "$tmp"

echo "== smoke grid (-benchtime=$gridtime)"
go test ./internal/perf -run '^$' -bench '^BenchmarkSmokeGrid$' -benchmem -benchtime "$gridtime" | tee -a "$tmp"

if [ "$mode" = full ]; then
    echo "== wire-mode transfer"
    go test ./internal/perf -run '^$' -bench '^BenchmarkWireModeTransfer$' -benchmem -benchtime 3x | tee -a "$tmp"
fi

if [ "$mode" = smoke ]; then
    echo "smoke bench ok"
    exit 0
fi

# Live loopback throughput: real two-process transfers over loopback
# UDP (see scripts/live_smoke.sh for the gating smoke). A {1,2 paths}
# x {10 MB, 100 MB} matrix; each client's -json metrics are embedded
# verbatim, and environments that deny UDP sockets record null runs
# instead of failing the bench.
livedir=$(mktemp -d)
live_built=
go build -o "$livedir/mpq-live" ./cmd/mpq-live && live_built=1

# run_live <listen-addrs> <size-bytes> -> prints client JSON or "null"
run_live() {
    addrs=$1 size=$2 spid=
    [ -n "$live_built" ] || { echo null; return; }
    : >"$livedir/server.log"
    "$livedir/mpq-live" -server -once -idle 10s \
        -listen "$addrs" >"$livedir/server.log" 2>&1 &
    spid=$!
    i=0
    while ! grep -q '^listening' "$livedir/server.log" && kill -0 "$spid" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && break
        sleep 0.1
    done
    if grep -q '^listening' "$livedir/server.log" &&
        "$livedir/mpq-live" -connect "$addrs" -size "$size" \
            -timeout 120s -json >"$livedir/client.json" 2>"$livedir/client.log"; then
        cat "$livedir/client.json"
        wait "$spid" 2>/dev/null || true
    else
        kill "$spid" 2>/dev/null || true
        wait "$spid" 2>/dev/null || true
        echo null
    fi
}

one_path=127.0.0.1:47651
two_path=127.0.0.1:47651,127.0.0.1:47652

echo "== live loopback matrix (mpq-live, {1,2 paths} x {10,100 MB})"
live_1p_10m=$(run_live "$one_path" 10000000)
echo "   1 path  10 MB:  $(printf '%s' "$live_1p_10m" | head -c 120)"
live_2p_10m=$(run_live "$two_path" 10000000)
echo "   2 paths 10 MB:  $(printf '%s' "$live_2p_10m" | head -c 120)"
live_1p_100m=$(run_live "$one_path" 100000000)
echo "   1 path  100 MB: $(printf '%s' "$live_1p_100m" | head -c 120)"
live_2p_100m=$(run_live "$two_path" 100000000)
echo "   2 paths 100 MB: $(printf '%s' "$live_2p_100m" | head -c 120)"
rm -rf "$livedir"

# Convert `go test -bench` lines into JSON records. Metric pairs are
# parsed generically: "124.6 ns/op" -> "ns_per_op": 124.6.
results=$(awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    sub(/^Benchmark/, "", name)
    printf "%s    {\"name\": \"%s\", \"iterations\": %s", sep, name, $2
    for (i = 3; i < NF; i += 2) {
        key = $(i + 1)
        gsub(/\//, "_per_", key)
        gsub(/[^A-Za-z0-9_]/, "", key)
        printf ", \"%s\": %s", key, $i
    }
    printf "}"
    sep = ",\n"
}' "$tmp")

emit_json() {
    printf '{\n'
    printf '  "go": "%s",\n' "$(go version | awk '{print $3}')"
    printf '  "benchtime": {"micro": "%s", "grid": "%s"},\n' "$microtime" "$gridtime"
    cat <<'EOF'
  "baseline": {
    "commit": "8e0e2f0",
    "note": "pre-PR3 hot path: per-event heap allocation via container/heap, per-packet encode/decode buffer copies, two closures per link transit",
    "results": [
      {"name": "PacketEncode", "ns_per_op": 290.8, "B_per_op": 1408, "allocs_per_op": 1},
      {"name": "PacketDecode", "ns_per_op": 706.9, "B_per_op": 1824, "allocs_per_op": 11},
      {"name": "ClockScheduleRun", "ns_per_op": 100480, "B_per_op": 24576, "allocs_per_op": 512},
      {"name": "ClockSameTimeFIFO", "ns_per_op": 89893, "B_per_op": 24576, "allocs_per_op": 512},
      {"name": "LinkTransit", "ns_per_op": 133168, "B_per_op": 65536, "allocs_per_op": 1024},
      {"name": "SmokeGrid", "ns_per_op": 865835080, "scenarios_per_sec": 6.93, "B_per_op": 399059520, "allocs_per_op": 5633206},
      {"name": "WireModeTransfer", "ns_per_op": 616510091, "B_per_op": 2528787360, "allocs_per_op": 187156}
    ]
  },
EOF
    cat <<'EOF'
  "live_loopback": {
    "baseline_pr7": {
      "note": "pre-fast-lane live driver (PR 7): per-packet wake-ups, per-packet allocation, O(n^2) reassembly growth; 10 MB over two loopback paths",
      "size_bytes": 10000000,
      "paths": 2,
      "transfer_s": 4.470463801,
      "goodput_mbps": 17.895234937839056
    },
EOF
    printf '    "runs": {\n'
    printf '      "paths1_10mb": %s,\n' "$live_1p_10m"
    printf '      "paths2_10mb": %s,\n' "$live_2p_10m"
    printf '      "paths1_100mb": %s,\n' "$live_1p_100m"
    printf '      "paths2_100mb": %s\n' "$live_2p_100m"
    printf '    }\n'
    printf '  },\n'
    printf '  "results": [\n'
    printf '%s\n' "$results"
    printf '  ]\n'
    printf '}\n'
}

if [ -n "$out" ]; then
    emit_json > "$out"
    echo "wrote $out"
else
    emit_json >&3
fi
