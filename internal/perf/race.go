//go:build race

package perf

// RaceEnabled reports whether the binary was built with -race. Timing
// comparisons skip under it, the detector's slowdown is not uniform,
// and allocation budgets widen: sync.Pool then drops a quarter of what
// is put back, so pooled paths allocate by design.
const RaceEnabled = true
