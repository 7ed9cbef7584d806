// Package livebroken is a deliberately broken miniature of the live
// driver loop. TestLiveInvariantsPinned asserts that confine,
// poolsafety and blocking EACH flag at least one of the bugs below —
// if an analyzer regresses into passing everything, that test fails.
// (No // want comments: the meta-test checks per-analyzer diagnostic
// counts, not positions.)
package livebroken

import (
	"sync"

	"mpquic/internal/wire"
)

type driver struct {
	//mpq:confined run-loop
	stats  int
	mu     sync.Mutex
	recvCh chan []byte
}

// Run reintroduces every regression the analyzers exist to prevent:
// it blocks outside a waitpoint, takes a lock on the hot path, and
// touches a recycled packet buffer.
//
//mpq:entry run-loop
func (d *driver) Run() {
	for {
		b := <-d.recvCh // blocking: bare receive, no waitpoint
		d.mu.Lock()     // blocking: mutex on the hot path
		d.stats++
		wire.PutPacketBuf(b)
		_ = b[0] // poolsafety: use after recycle
		d.mu.Unlock()
	}
}

// Poke touches run-loop state from the any-goroutine domain.
func (d *driver) Poke() {
	d.stats++ // confine: confined member outside its domain
}
