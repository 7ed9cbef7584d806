// Package walltime exercises the walltime analyzer: wall-clock reads
// are flagged, pure time conversions are not.
package walltime

import "time"

func bad() time.Time {
	return time.Now() // want `time\.Now reads the wall clock`
}

func sleepy() {
	time.Sleep(time.Millisecond) // want `time\.Sleep reads the wall clock`
}

func since(t time.Time) time.Duration {
	return time.Since(t) // want `time\.Since reads the wall clock`
}

func after() <-chan time.Time {
	return time.After(time.Second) // want `time\.After reads the wall clock`
}

func ticker() *time.Ticker {
	return time.NewTicker(time.Second) // want `time\.NewTicker reads the wall clock`
}

// okDuration builds durations and dates without observing real time.
func okDuration() time.Duration {
	d := 5 * time.Millisecond
	_ = time.Date(2017, time.December, 12, 0, 0, 0, 0, time.UTC)
	return d
}
