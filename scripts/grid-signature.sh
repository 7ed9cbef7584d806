#!/bin/sh
# grid-signature.sh [scenarios] [parent-checkout] — sha256 of every grid
# artifact the four stacks (TCP, QUIC, MPTCP, MPQUIC) write, one line
# per JSONL file, and of the reports mpq-bench prints, one line per
# command. Two checkouts make the same loss-recovery decisions in every
# run of every stack, and render the same tables and figures, when
# their outputs are identical:
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
# Their stdout is signed too: it carries every rendered table and the
# Fig. 11 handover series, which writes no artifact. `-exp all` runs the
# handover with its default path kill only, so the stdout of
# `mpq-bench handover` under `-mode flap`, `-mode oscillate` and
# `-no-paths-frame` is signed as well: the handover is the one run that
# schedules events at the current instant.
# -scenarios 40 takes about 50 s + 25 s per checkout.
set -eu

here=$(cd "$(dirname "$0")/.." && pwd)
scenarios=${1:-8}
parent=${2:-}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

# sign <checkout> <out>: the sha256s of the artifacts and of each
# command's stdout, written to out.txt.
sign() {
    mkdir -p "$dir/$2" "$dir/$2.stdout"
    for exp in all dynamics; do
        (cd "$1" && go run ./cmd/mpq-bench -exp "$exp" -scenarios "$scenarios" -artifacts "$dir/$2" -progress=false) \
            >"$dir/$2.stdout/mpq-bench-exp-$exp"
    done
    for args in "-mode flap" "-mode oscillate" "-no-paths-frame"; do
        # $args is split into flags on purpose.
        # shellcheck disable=SC2086
        (cd "$1" && go run ./cmd/mpq-bench handover $args) \
            >"$dir/$2.stdout/mpq-bench-handover$(printf '%s' " $args" | tr ' ' '_')"
    done
    { (cd "$dir/$2" && sha256sum -- *.jsonl) && (cd "$dir/$2.stdout" && sha256sum -- *); } >"$dir/$2.txt"
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
