// Package livebroken is a deliberately broken miniature of the live
// driver loop. TestLiveInvariantsPinned asserts that confine and
// blocking EACH flag at least one of the bugs below — if an analyzer
// regresses into passing everything, that test fails.
// (No // want comments: the meta-test checks per-analyzer diagnostic
// counts, not positions.)
package livebroken

import "sync"

type driver struct {
	//mpq:confined
	stats  int
	mu     sync.Mutex
	recvCh chan []byte
}

// Run reintroduces every regression the analyzers exist to prevent:
// it blocks outside a waitpoint and takes a lock on the hot path.
//
//mpq:entry
func (d *driver) Run() {
	for {
		<-d.recvCh  // blocking: bare receive, no waitpoint
		d.mu.Lock() // blocking: mutex on the hot path
		d.stats++
		d.mu.Unlock()
	}
}

// Poke touches run-loop state from any goroutine.
func (d *driver) Poke() {
	d.stats++ // confine: confined member outside its domain
}
