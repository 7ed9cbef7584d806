// Package maporder exercises the maporder analyzer: every range over a
// map is flagged — whatever its body does — except the
// collect-keys-then-sort idiom and a loop that clears the map.
package maporder

import (
	"sort"
	"time"

	"mpquic/internal/netem"
	"mpquic/internal/sim"
)

func schedules(c *sim.Clock, m map[int]func()) {
	for _, fn := range m { // want `range over a map has a random order`
		c.After(time.Millisecond, fn)
	}
}

func rearmsTimer(t *sim.Timer, m map[int]sim.Time) {
	for _, at := range m { // want `range over a map has a random order`
		t.Reset(at)
	}
}

func transmits(nw *netem.Network, m map[string]netem.Datagram) {
	for _, dg := range m { // want `range over a map has a random order`
		nw.Send(dg)
	}
}

func collects(m map[string]int) []int {
	var out []int
	for _, v := range m { // want `range over a map has a random order`
		out = append(out, v)
	}
	return out
}

func sums(m map[string]float64) float64 {
	var total float64
	for _, v := range m { // want `range over a map has a random order`
		total += v
	}
	return total
}

func sumsSelfAssign(m map[string]float64) float64 {
	var total float64
	for _, v := range m { // want `range over a map has a random order`
		total = total + v
	}
	return total
}

// counts is order-insensitive today, but nothing keeps the body so.
func counts(m map[string]int) int {
	n := 0
	for _, v := range m { // want `range over a map has a random order`
		n += v
	}
	return n
}

// loopLocal appends to a slice that dies with each iteration; flagged
// all the same.
func loopLocal(m map[string][]int) int {
	n := 0
	for _, vs := range m { // want `range over a map has a random order`
		var scratch []int
		scratch = append(scratch, vs...)
		n += len(scratch)
	}
	return n
}

type conn struct {
	nw  *netem.Network
	bye netem.Datagram
}

// Close sends a packet: the loop below puts them on the wire in map
// order, and nothing in the loop body says so.
func (c *conn) Close() { c.nw.Send(c.bye) }

func closesAll(m map[int]*conn) {
	for _, c := range m { // want `range over a map has a random order`
		c.Close()
	}
}

func register(c *sim.Clock, fn func()) { c.After(time.Millisecond, fn) }

// registers hands each callback to a function that schedules it.
func registers(c *sim.Clock, m map[string]func()) {
	for _, fn := range m { // want `range over a map has a random order`
		register(c, fn)
	}
}

// deletesOther removes a's keys from b: not a clear of the ranged map.
func deletesOther(a, b map[string]int) {
	for k := range a { // want `range over a map has a random order`
		delete(b, k)
	}
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

// clears empties a map; whatever the order, the result is empty.
func clears(m map[string]int) {
	for k := range m {
		delete(m, k)
	}
}

type holder struct{ m map[int]bool }

// clearsField empties a map held in a struct field.
func clearsField(s *holder) {
	for k := range s.m {
		delete(s.m, k)
	}
}
