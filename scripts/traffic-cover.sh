#!/bin/sh
# traffic-cover.sh [scenarios] — which statements does real traffic
# reach? Builds cmd/mpq-bench and cmd/mpq-live as coverage binaries
# (go build -cover, every package of the module instrumented), runs the
# production command set below with GOCOVERDIR set, merges the counters
# and prints, per file, the statements no run reached, then a
# per-package summary. A statement listed here is reached only by tests
# (or by nothing): the first place to look for code to delete.
#
# The command set: mpq-bench -exp all and -exp dynamics (-scenarios
# scenarios per class, default 8); the Fig. 5 grid with -sample,
# -flight-recorder and -artifacts, then rendered again with
# -from-artifacts; the Fig. 11 handover under each -mode (kill, flap,
# oscillate); run, trace, trace -json and trace -qlog on all four
# stacks; and four mpq-live loopback pairs: 1 MB over one path, 10 MB over two, and
# both fault specs of chaos_smoke.sh (a blackholed second path; a
# killed and restored single path). The live pairs are skipped, with a
# notice, where the environment denies UDP sockets.
#
# Not part of scripts/check.sh or CI: it binds loopback sockets and
# takes about a minute.
set -eu

cd "$(dirname "$0")/.."

scenarios=${1:-8}
A1=127.0.0.1:47651
A2=127.0.0.1:47652

tmp=$(mktemp -d)
spid=
cleanup() {
    [ -n "$spid" ] && kill "$spid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

mkdir "$tmp/cov"
GOCOVERDIR=$tmp/cov
export GOCOVERDIR
for cmd in mpq-bench mpq-live; do
    go build -cover -covermode=count -coverpkg=./... -o "$tmp/$cmd" "./cmd/$cmd"
done
# quiet <cmd...> runs cmd, showing its output only if it fails.
quiet() {
    "$@" >"$tmp/out.log" 2>&1 || { cat "$tmp/out.log" >&2; exit 1; }
}
bench() { quiet "$tmp/mpq-bench" "$@"; }

echo "== mpq-bench grids (-scenarios $scenarios)"
for exp in all dynamics; do
    bench -exp "$exp" -scenarios "$scenarios" -progress=false
done
echo "== mpq-bench sampled grid with flight recorder and artifacts, then re-rendered"
bench -exp fig5 -scenarios "$scenarios" -progress=false -sample 50ms \
    -flight-recorder "$tmp/flight" -artifacts "$tmp/art"
bench -exp fig5 -scenarios "$scenarios" -progress=false -sample 50ms \
    -artifacts "$tmp/art" -from-artifacts
echo "== mpq-bench handover, run and trace (text, JSON, qlog)"
for mode in kill flap oscillate; do
    bench handover -mode "$mode"
done
for proto in tcp quic mptcp mpquic; do
    bench run -proto "$proto" -size 1
    bench trace -proto "$proto" -size 1
    bench trace -proto "$proto" -size 1 -json
    bench trace -proto "$proto" -size 1 -qlog
done

# live_pair <addrs> <size> [client flags...] — one server process, one
# client process, on loopback; returns 1 if UDP sockets are denied.
live_pair() {
    addrs=$1
    size=$2
    shift 2
    : >"$tmp/server.log"
    "$tmp/mpq-live" -server -once -idle 10s -listen "$addrs" >"$tmp/server.log" 2>&1 &
    spid=$!
    i=0
    until grep -q '^listening' "$tmp/server.log"; do
        if ! kill -0 "$spid" 2>/dev/null; then
            spid=
            if grep -qi 'permission denied\|not permitted' "$tmp/server.log"; then
                return 1
            fi
            echo "traffic-cover: server failed to start:" >&2
            cat "$tmp/server.log" >&2
            exit 1
        fi
        i=$((i + 1))
        [ "$i" -gt 100 ] && { echo "traffic-cover: server never reported listening" >&2; exit 1; }
        sleep 0.1
    done
    quiet "$tmp/mpq-live" -connect "$addrs" -size "$size" -timeout 60s -json "$@"
    wait "$spid"
    spid=
}

echo "== mpq-live loopback pairs"
if live_pair "$A1" 1000000; then
    live_pair "$A1,$A2" 10000000
    live_pair "$A1,$A2" 100000000 -chaos 'seed=42;blackhole@50ms:1'
    live_pair "$A1" 100000000 -chaos 'seed=7;kill@60ms:0;restore@260ms:0' \
        -rebind-max 20 -rebind-backoff 100ms
else
    echo "traffic-cover: UDP sockets unavailable in this environment, live pairs skipped"
fi

go tool covdata textfmt -i "$tmp/cov" -o "$tmp/cover.txt"
module=$(go list -m)
echo "== statements no run reached (file:line.col,line.col statements)"
# A block may be listed once per binary: it is reached if any run
# reached it.
awk -v prefix="$module/" 'NR > 1 {
        n[$1] = $2
        hit[$1] += $3
    }
    END {
        for (b in n) {
            if (hit[b] == 0) {
                stmts = n[b]
                sub("^" prefix, "", b)
                print b " " stmts
            }
        }
    }' "$tmp/cover.txt" | sort -t: -k1,1 -k2,2n | awk '{
        split($1, loc, ":")
        if (loc[1] != file) {
            file = loc[1]
            print file
        }
        print "    " loc[2] " " $2
    }'
echo "== per package"
go tool covdata percent -i "$tmp/cov" | sed "s|^[[:space:]]*||; s|^$module/||" | sort
