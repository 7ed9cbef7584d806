#!/bin/sh
# sim-signature.sh [seeds…] — the simulated behaviour of the three sim_*
# benchmark workloads as one diff-able table, one line per workload,
# seed and quantity. Two checkouts behave alike in the simulator when
# their outputs are identical:
#
#   scripts/sim-signature.sh 0 5 > here.txt
#   (cd ../parent && scripts/sim-signature.sh 0 5) | diff - here.txt
#
# Each line comes from `bash bench/run.sh --trace 1` (nothing under
# bench/ is touched). The four counters are sums over the traced cycles
# a run fits, and a faster checkout fits more of them, so they are
# printed per traced unit: units attempted minus bench.unit_samples,
# the untraced ones. The three ratios and medians do not depend on the
# cycle count and are printed as the benchmark prints them. The run
# length is fixed and short: every run still makes one untraced and one
# traced cycle, which is all the table needs.
set -eu

cd "$(dirname "$0")/.."

[ $# -gt 0 ] || set -- 0
for workload in sim_grid_bulk sim_grid_lossy sim_wire_crypto; do
    for seed in "$@"; do
        bash bench/run.sh --workload "$workload" --seed "$seed" --seconds 1 --trace 1 |
            awk -v w="$workload" -v s="$seed" '
                $1 ~ /^[a-z]+\.[a-z0-9_]+$/ { text[$1] = $2 }
                /^\{"correct"/ { json = $0 }
                function after(key,    m) { # the number that follows key in the result line
                    m = json
                    sub(".*" key, "", m)
                    sub("[,}].*", "", m)
                    return m
                }
                # a metric as the result line gives it, not rounded for display
                function exact(name) { return after("\"" name "\":\\{\"value\":") }
                END {
                    if (json == "" || after("\"failed\":") != 0) {
                        print "sim-signature: " w " seed " s ": no result line, or failed units" > "/dev/stderr"
                        exit 1
                    }
                    traced = after("\"attempted\":") - exact("bench.unit_samples")
                    n = split("core.egress_pkts recovery.pkts_lost recovery.rtos netem.queue_drops", counters, " ")
                    for (i = 1; i <= n; i++)
                        printf "%s seed %s %s %.6f per traced unit\n", w, s, counters[i], exact(counters[i]) / traced
                    n = split("bench.sim_transfer_s_p50 recovery.acks_per_data_pkt wire.overhead_ratio", printed, " ")
                    for (i = 1; i <= n; i++)
                        printf "%s seed %s %s %s\n", w, s, printed[i], text[printed[i]]
                }'
    done
done
