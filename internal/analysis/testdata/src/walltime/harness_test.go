package walltime

import "time"

// Test files are a timing harness and are never loaded (Load and
// LoadFromDir take non-test files only, as `go list`'s GoFiles does):
// a wall-clock read here carries no want comment, so loading this file
// would fail the fixture with an unexpected diagnostic.
func measure() time.Duration {
	start := time.Now()
	return time.Since(start)
}
