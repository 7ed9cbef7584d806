// Package maporder exercises the maporder analyzer: map iterations
// whose order reaches scheduling, transmission, result slices or float
// accumulations are flagged; the collect-keys-then-sort idiom and
// order-insensitive bodies are not.
package maporder

import (
	"sort"
	"time"

	"mpquic/internal/netem"
	"mpquic/internal/sim"
)

func schedules(c *sim.Clock, m map[int]func()) {
	for _, fn := range m { // want `map iteration order leaks into event scheduling`
		c.After(time.Millisecond, fn)
	}
}

func rearmsTimer(t *sim.Timer, m map[int]sim.Time) {
	for _, at := range m { // want `map iteration order leaks into event scheduling`
		t.Reset(at)
	}
}

func transmits(nw *netem.Network, m map[string]netem.Datagram) {
	for _, dg := range m { // want `map iteration order leaks into frame/datagram transmission`
		nw.Send(dg)
	}
}

func collects(m map[string]int) []int {
	var out []int
	for _, v := range m { // want `map iteration order leaks into a slice that outlives the loop`
		out = append(out, v)
	}
	return out
}

func sums(m map[string]float64) float64 {
	var total float64
	for _, v := range m { // want `map iteration order leaks into a floating-point accumulation`
		total += v
	}
	return total
}

func sumsSelfAssign(m map[string]float64) float64 {
	var total float64
	for _, v := range m { // want `map iteration order leaks into a floating-point accumulation`
		total = total + v
	}
	return total
}

// sortedKeys is the sanctioned idiom: collect, sort, then iterate.
func sortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// counts is order-insensitive: integer addition commutes exactly.
func counts(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// loopLocal appends to a slice that dies with each iteration.
func loopLocal(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var scratch []int
		scratch = append(scratch, vs...)
		n += len(scratch)
	}
	return n
}
