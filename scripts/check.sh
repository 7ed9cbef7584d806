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

# internal/live splits its egress by build tags (sendmmsg with
# UDP_SEGMENT on linux/amd64 and linux/arm64, one write per datagram
# elsewhere) and its ingress by GOOS (UDP_GRO reads on every linux, one
# datagram per read elsewhere): keep every variant compiling. linux/386
# is the one build with the linux ingress and the fallback egress (the
# hand-laid mmsghdr is 64-bit only). Cross builds need no network.
echo "== cross builds (linux/arm64, linux/386, darwin/arm64, windows)"
GOOS=linux GOARCH=arm64 go vet ./internal/live
GOOS=linux GOARCH=386 go vet ./internal/live
GOOS=darwin GOARCH=arm64 go vet ./internal/live
GOOS=windows go build ./...

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
