# Convenience targets; see scripts/check.sh for the pre-commit gate and
# bench/run.sh (BENCHMARK.json) for the repository benchmark.

.PHONY: build test vet doclint fuzz-smoke bench bench-pairs sim-signature grid-signature live-smoke chaos-smoke check

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...
	go run ./cmd/mpq-vet ./...

doclint:
	go run ./scripts/doclint.go

# A short run of every native fuzzer; CI passes FUZZTIME=60s.
FUZZTIME ?= 30s
fuzz-smoke:
	go test -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=$(FUZZTIME) ./internal/wire
	go test -run='^$$' -fuzz='^FuzzDecodeBorrowed$$' -fuzztime=$(FUZZTIME) ./internal/wire
	go test -run='^$$' -fuzz='^FuzzLiveIngress$$' -fuzztime=$(FUZZTIME) ./internal/live
	go test -run='^$$' -fuzz='^FuzzRecvStream$$' -fuzztime=$(FUZZTIME) ./internal/stream
	go test -run='^$$' -fuzz='^FuzzClockOps$$' -fuzztime=$(FUZZTIME) ./internal/sim

# Every BENCHMARK.json workload once, end-to-end metrics (about 20 s each).
bench:
	for w in sim_grid_bulk sim_grid_lossy sim_wire_crypto live_loopback_2p live_large_1p; do \
		bash bench/run.sh --workload $$w || exit 1; \
	done

# Paired runs of one workload on a checkout of the parent commit and on
# this tree, alternating, ending in --compare:
#   make bench-pairs PARENT=/tmp/parent WORKLOAD=sim_grid_bulk PAIRS=10
PAIRS ?= 10
bench-pairs:
	sh scripts/bench-pairs.sh $(PARENT) $(WORKLOAD) $(PAIRS)

# What the three sim_* workloads do in simulated terms (packets, losses,
# RTOs, queue drops, transfer time) at seeds 0 and 5, to diff against
# the same table from another checkout.
sim-signature:
	sh scripts/sim-signature.sh 0 5

# sha256 of the eight grid artifacts all four stacks write (MPTCP
# included, which sim-signature never runs), to diff against the same
# table from another checkout.
grid-signature:
	sh scripts/grid-signature.sh 40

live-smoke:
	sh scripts/live_smoke.sh

chaos-smoke:
	sh scripts/chaos_smoke.sh

check:
	sh scripts/check.sh
