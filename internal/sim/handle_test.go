package sim_test

import (
	"reflect"
	"testing"

	"mpquic/internal/sim"
)

// TestSchedulingHandsOutNoEvent pins that Clock.At and Clock.After
// return nothing, so a Timer is the only deadline handle code outside
// sim can hold: pooled event storage is reused once the event runs.
func TestSchedulingHandsOutNoEvent(t *testing.T) {
	for _, m := range []struct {
		name string
		fn   any
	}{
		{"At", (*sim.Clock).At},
		{"After", (*sim.Clock).After},
	} {
		if n := reflect.TypeOf(m.fn).NumOut(); n != 0 {
			t.Errorf("Clock.%s returns %d value(s); it must hand out no event handle", m.name, n)
		}
	}
}
