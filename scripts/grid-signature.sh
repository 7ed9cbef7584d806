#!/bin/sh
# grid-signature.sh [scenarios] — sha256 of every grid artifact the four
# stacks (TCP, QUIC, MPTCP, MPQUIC) write, one line per JSONL file. Two
# checkouts make the same loss-recovery decisions in every run of every
# stack when their outputs are identical:
#
#   scripts/grid-signature.sh 40 > here.txt
#   (cd ../parent && scripts/grid-signature.sh 40) | diff - here.txt
#
# The artifacts carry per-path packets_sent/retransmits/final_cwnd/srtt,
# rtos, handshake and elapsed for every run, so this is the four-stack
# counterpart of sim-signature.sh, which only sees the three stacks
# bench/ times (never MPTCP). Calls only cmd/mpq-bench: `-exp all` for
# the paper's grids, then `-exp dynamics` for the three dynamic ones.
# -scenarios 40 takes about 50 s + 25 s.
set -eu

cd "$(dirname "$0")/.."

scenarios=${1:-8}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

for exp in all dynamics; do
    go run ./cmd/mpq-bench -exp "$exp" -scenarios "$scenarios" -artifacts "$dir" -progress=false >/dev/null
done
(cd "$dir" && sha256sum -- *.jsonl)
