#!/bin/sh
# check.sh — the pre-commit gate: formatting, vet, the full test
# suite, and a race-enabled pass over the fast (internal) packages.
# Run it as `scripts/check.sh` or `make check` from the repo root.
set -eu

cd "$(dirname "$0")/.."

echo "== go build"
go build ./...

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

# internal/live splits its I/O by GOOS alone: on linux the driver's own
# sockets write runs as UDP_SEGMENT messages and read them with UDP_GRO
# (offload_linux.go), elsewhere one datagram per write and per read
# (offload_other.go). Vet the linux variant on arm64 and on 386, where
# a cmsg header's length is 32 bits wide, and the other on darwin and
# windows. Cross builds need no network.
echo "== cross builds (linux/arm64, linux/386, darwin/arm64, windows)"
GOOS=linux GOARCH=arm64 go vet ./internal/live
GOOS=linux GOARCH=386 go vet ./internal/live
GOOS=darwin GOARCH=arm64 go vet ./internal/live
GOOS=windows go build ./...

# The offload path and the run hand-off as a 32-bit binary, since
# vetting it does not run the narrower cmsg layout or a run's length
# and offset arithmetic. Skipped, loudly, where the host cannot exec
# 386 binaries; the vet above has already compiled the tests.
if GOOS=linux GOARCH=386 go test -count=1 -run '^$' ./internal/live >/dev/null 2>&1; then
    echo "== go test linux/386 (live offload)"
    GOOS=linux GOARCH=386 go test -count=1 -run 'Offload|Batched|GROJunk|Interleaved|RunSegment|FuzzLiveIngress' ./internal/live
else
    echo "== go test linux/386 (skipped: host cannot run 386 binaries)"
fi

# One load, both gates: the analyzers, then the escape gate replaying
# `go build -gcflags=-m` to verify every //mpq:noescape function
# compiles allocation-free. The gate exits 0 but prints a loud SKIPPED
# line if the toolchain output is unparseable — grep for it so a
# silent skip cannot masquerade as a pass.
echo "== mpq-vet (analyzers + escape gate)"
go run ./cmd/mpq-vet ./...

echo "== doclint"
go run ./scripts/doclint.go

# Optional linters: run when present on PATH, skip (loudly) when not.
# CI installs pinned versions; local sandboxes without network access
# still get the full first-party gate above.
if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck"
    staticcheck ./...
else
    echo "== staticcheck (skipped: not installed)"
fi
if command -v govulncheck >/dev/null 2>&1; then
    echo "== govulncheck"
    govulncheck ./...
else
    echo "== govulncheck (skipped: not installed)"
fi

echo "== go test"
go test ./...

# bench/ is a module of its own (replace mpquic => ../), so the root
# ./... patterns above never compile it: without this step a change to
# an internal/* API could break the benchmark harness unnoticed. The
# analyzers run there too.
echo "== bench module (go vet, mpq-vet, go test)"
(cd bench && go vet . && go run mpquic/cmd/mpq-vet . && go test .)

# The root package hosts the grid benchmarks; every internal package
# is seconds-fast even under the race detector.
echo "== go test -race (internal packages)"
go test -race ./internal/...

# Live ingress batches — and so which datagrams carry
# netem.Datagram.More — take their shape from the Go scheduler; the two
# packages that depend on it run under several P counts.
echo "== go test -race -cpu 1,2,4 (core, live)"
go test -race -cpu 1,2,4 ./internal/core ./internal/live

echo "ok"
