//go:build !race

package perf

// RaceEnabled reports whether the binary was built with -race; see the
// race-build counterpart.
const RaceEnabled = false
