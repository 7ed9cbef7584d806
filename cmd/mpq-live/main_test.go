package main

import "testing"

// TestChaosOptionRejectsWhatItCannotDo: a -chaos spec is refused when a
// rate is not a probability (NaN included) or an event names a path no
// socket is bound for, and accepted otherwise.
func TestChaosOptionRejectsWhatItCannotDo(t *testing.T) {
	for _, c := range []struct {
		spec  string
		paths int
		ok    bool
	}{
		{"seed=1;drop=0.01;kill@10ms:1", 2, true},
		{"kill@10ms:0", 1, true},
		{"kill@10ms:5", 1, false},
		{"blackhole@10ms+5ms:1", 1, false},
		{"drop=NaN", 2, false},
		{"corrupt=1.5", 2, false},
	} {
		if _, err := chaosOption(c.spec, c.paths); (err == nil) != c.ok {
			t.Errorf("chaosOption(%q, %d paths): err %v, want ok=%v", c.spec, c.paths, err, c.ok)
		}
	}
}
