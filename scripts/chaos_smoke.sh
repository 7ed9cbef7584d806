#!/bin/sh
# chaos_smoke.sh — live fault-tolerance smoke (the live analog of the
# paper's Fig. 11 handover experiment, driven by internal/faultnet).
#
# Leg 1 (failover): a two-path loopback 100 MB GET where the client's
# second socket blackholes mid-transfer. The transfer must complete via
# failover onto the surviving path, and the client's JSON metrics must
# show the dead path potentially failed. A blackhole is silence, not an
# error, so PF is detected at the data sender (the server's RTOs) and
# reaches the client as a PATHS-frame declaration — "remote_pf":true —
# the §4.3 failover mechanism observed end to end.
#
# Leg 2 (self-healing): a single-path 100 MB GET whose only socket is
# killed mid-transfer and becomes bindable again 200 ms later. The
# reader's rebind ladder must heal the socket ("rebinds" >= 1, no path
# failed) and the transfer must complete on it. The leg runs twice with
# the same seed+script: faultnet's determinism contract says the same
# spec produces the same fault sequence, so a second run must behave
# the same way.
#
# Exits 0 with a notice when the environment denies UDP sockets, so
# sandboxed checkouts are not failed for something they cannot do.
set -eu

cd "$(dirname "$0")/.."

A1=127.0.0.1:47641
A2=127.0.0.1:47642

tmp=$(mktemp -d)
spid=
cleanup() {
    [ -n "$spid" ] && kill "$spid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/mpq-live" ./cmd/mpq-live

# run_pair <addrs> <size> [client flags...] — one plain server process,
# one (fault-injected) client process, both on loopback.
run_pair() {
    addrs=$1
    size=$2
    shift 2
    : > "$tmp/server.log"
    "$tmp/mpq-live" -server -once -idle 10s -listen "$addrs" >"$tmp/server.log" 2>&1 &
    spid=$!
    i=0
    until grep -q '^listening' "$tmp/server.log"; do
        if ! kill -0 "$spid" 2>/dev/null; then
            if grep -qi 'permission denied\|not permitted' "$tmp/server.log"; then
                echo "chaos-smoke: UDP sockets unavailable in this environment, skipping"
                spid=
                exit 0
            fi
            echo "chaos-smoke: server failed to start:" >&2
            cat "$tmp/server.log" >&2
            exit 1
        fi
        i=$((i + 1))
        [ "$i" -gt 100 ] && { echo "chaos-smoke: server never reported listening" >&2; exit 1; }
        sleep 0.1
    done
    "$tmp/mpq-live" -connect "$addrs" -size "$size" -timeout 60s -json "$@"
    wait "$spid"
    spid=
}

# json_field <file> <key> — extract one numeric/bool scalar.
json_field() {
    sed -n "s/.*\"$2\":\([0-9a-z.eE+-]*\).*/\1/p" "$1"
}

echo "== chaos smoke leg 1: two paths, one blackholed mid-transfer (failover)"
run_pair "$A1,$A2" 100000000 \
    -chaos 'seed=42;blackhole@50ms:1' >"$tmp/leg1.json"
cat "$tmp/leg1.json"
if ! grep -q '"remote_pf":true' "$tmp/leg1.json"; then
    echo "chaos-smoke: blackholed path never went potentially-failed at the sender" >&2
    exit 1
fi
echo "failover ok: transfer completed with the blackholed path declared pf by the sender"

# Leg 2 as a function so it runs twice with the identical fault spec.
run_leg2() {
    run_pair "$A1" 100000000 \
        -chaos 'seed=7;kill@60ms:0;restore@260ms:0' \
        -rebind-max 20 -rebind-backoff 100ms >"$tmp/leg2.json"
    cat "$tmp/leg2.json"
    rebinds=$(json_field "$tmp/leg2.json" rebinds)
    failed=$(json_field "$tmp/leg2.json" paths_failed_live)
    if [ -z "$rebinds" ] || [ "$rebinds" -lt 1 ]; then
        echo "chaos-smoke: socket was not rebound through the outage (rebinds=$rebinds)" >&2
        exit 1
    fi
    if [ "$failed" != "0" ]; then
        echo "chaos-smoke: healed socket was marked failed (paths_failed_live=$failed)" >&2
        exit 1
    fi
    echo "self-healing ok: $rebinds rebind(s), no path failed"
}

echo "== chaos smoke leg 2: kill + restore, rebind recovery"
run_leg2

echo "== chaos smoke leg 2 (repeat): same seed, same script, same outcome"
run_leg2

echo "chaos-smoke ok"
