# Convenience targets; see scripts/check.sh for the pre-commit gate and
# bench/run.sh (BENCHMARK.json) for the repository benchmark.

.PHONY: build test vet doclint fuzz-smoke bench bench-pairs sim-signature grid-signature live-smoke chaos-smoke traffic-cover live-profile check

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
	go test -run='^$$' -fuzz='^FuzzAckFrameRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/wire
	go test -run='^$$' -fuzz='^FuzzLiveIngress$$' -fuzztime=$(FUZZTIME) ./internal/live
	go test -run='^$$' -fuzz='^FuzzRecvStream$$' -fuzztime=$(FUZZTIME) ./internal/stream
	go test -run='^$$' -fuzz='^FuzzConnFrames$$' -fuzztime=$(FUZZTIME) ./internal/core
	go test -run='^$$' -fuzz='^FuzzAckManager$$' -fuzztime=$(FUZZTIME) ./internal/recovery
	go test -run='^$$' -fuzz='^FuzzSpaceHistory$$' -fuzztime=$(FUZZTIME) ./internal/recovery
	go test -run='^$$' -fuzz='^FuzzFlowScoreboard$$' -fuzztime=$(FUZZTIME) ./internal/tcpsim
	go test -run='^$$' -fuzz='^FuzzClockOps$$' -fuzztime=$(FUZZTIME) ./internal/sim
	go test -run='^$$' -fuzz='^FuzzLinkOps$$' -fuzztime=$(FUZZTIME) ./internal/netem

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

# Statements no production run reaches (coverage binaries of mpq-bench
# and mpq-live over the paper grids, the handover, all four stacks and
# four loopback pairs; about a minute, binds sockets, not in CI).
traffic-cover:
	sh scripts/traffic-cover.sh

# Where the allocations and the CPU of live GETs go: a CPU profile of
# PROFCOUNT runs of TestLiveWarmServerAllocBytes (two-path 10 MiB GETs
# over loopback, server and client in one process, one cold GET and
# four warm ones a run), a memory profile of one more run with every
# allocation sampled, and the top of each. The files stay in $(PROFDIR)
# for `go tool pprof`. Binds loopback sockets.
PROFDIR ?= .live-profile
PROFCOUNT ?= 10
live-profile:
	mkdir -p $(PROFDIR)
	go test -c -o $(PROFDIR)/mpquic.test .
	$(PROFDIR)/mpquic.test -test.run '^TestLiveWarmServerAllocBytes$$' -test.count $(PROFCOUNT) -test.cpuprofile $(PROFDIR)/cpu.out
	$(PROFDIR)/mpquic.test -test.run '^TestLiveWarmServerAllocBytes$$' -test.memprofilerate 1 -test.memprofile $(PROFDIR)/mem.out
	go tool pprof -top -nodecount=25 $(PROFDIR)/mpquic.test $(PROFDIR)/cpu.out
	go tool pprof -sample_index=alloc_space -top -nodecount=25 $(PROFDIR)/mpquic.test $(PROFDIR)/mem.out

check:
	sh scripts/check.sh
