# Convenience targets; see scripts/check.sh for the pre-commit gate and
# bench/run.sh (BENCHMARK.json) for the repository benchmark.

.PHONY: build test vet escape doclint fuzz-smoke bench live-smoke chaos-smoke check

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...
	go run ./cmd/mpq-vet ./...

escape:
	go run ./cmd/mpq-escape ./...

doclint:
	go run ./scripts/doclint.go

fuzz-smoke:
	go test -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=30s ./internal/wire
	go test -run='^$$' -fuzz='^FuzzDecodeBorrowed$$' -fuzztime=30s ./internal/wire
	go test -run='^$$' -fuzz='^FuzzLiveIngress$$' -fuzztime=30s ./internal/live
	go test -run='^$$' -fuzz='^FuzzRecvStream$$' -fuzztime=30s ./internal/stream

# Every BENCHMARK.json workload once, end-to-end metrics (about 20 s each).
bench:
	for w in sim_grid_bulk sim_grid_lossy sim_wire_crypto live_loopback_2p live_large_1p; do \
		bash bench/run.sh --workload $$w || exit 1; \
	done

live-smoke:
	sh scripts/live_smoke.sh

chaos-smoke:
	sh scripts/chaos_smoke.sh

check:
	sh scripts/check.sh
