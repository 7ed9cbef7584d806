#!/bin/sh
# grid-signature.sh [scenarios] [parent-checkout] — sha256 of every grid
# artifact the four stacks (TCP, QUIC, MPTCP, MPQUIC) write, one line
# per JSONL file. Two checkouts make the same loss-recovery decisions in
# every run of every stack when their outputs are identical:
#
#   scripts/grid-signature.sh 40 ../parent
#
# With a parent checkout the script signs it too (its own cmd/mpq-bench,
# whatever its age), prints the diff and exits 1 on a mismatch; without
# one it only prints this tree's signature.
#
# The artifacts carry per-path packets_sent/retransmits/final_cwnd/srtt,
# rtos, handshake and elapsed for every run, so this is the four-stack
# counterpart of sim-signature.sh, which only sees the three stacks
# bench/ times (never MPTCP). Calls only cmd/mpq-bench: `-exp all` for
# the paper's grids, then `-exp dynamics` for the three dynamic ones.
# -scenarios 40 takes about 50 s + 25 s per checkout.
set -eu

here=$(cd "$(dirname "$0")/.." && pwd)
scenarios=${1:-8}
parent=${2:-}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

# sign <checkout> <out>: the artifacts' sha256s, written to out.
sign() {
    mkdir -p "$dir/$2"
    for exp in all dynamics; do
        (cd "$1" && go run ./cmd/mpq-bench -exp "$exp" -scenarios "$scenarios" -artifacts "$dir/$2" -progress=false >/dev/null)
    done
    (cd "$dir/$2" && sha256sum -- *.jsonl) >"$dir/$2.txt"
}

sign "$here" here
if [ -z "$parent" ]; then
    cat "$dir/here.txt"
    exit 0
fi
sign "$parent" parent
if diff "$dir/parent.txt" "$dir/here.txt"; then
    cat "$dir/here.txt"
    echo "grid signature: identical to $parent"
else
    echo "grid signature: differs from $parent" >&2
    exit 1
fi
