package core

import (
	"slices"
	"testing"
	"time"

	"mpquic/internal/netem"
	"mpquic/internal/recovery"
	"mpquic/internal/sim"
	"mpquic/internal/wire"
)

// newTestConn builds a connected multipath conn with two paths and
// hand-tuned RTT estimators for white-box scheduler tests.
func newTestConn(t *testing.T, cfg Config) *Conn {
	t.Helper()
	clock := sim.NewClock()
	nw := netem.New(clock, sim.NewRand(1))
	c := newConn(nw, RoleClient, 1, cfg, []netem.Addr{"a0", "a1"}, []netem.Addr{"b0", "b1"})
	c.addPath(0, "a0", "b0")
	c.addPath(1, "a1", "b1")
	c.handshakeComplete = true
	return c
}

func feedRTT(p *Path, rtt time.Duration) {
	p.est.Update(rtt, 0)
}

func TestScheduleLowestRTTPrefersFasterPath(t *testing.T) {
	c := newTestConn(t, DefaultConfig())
	p0, p1 := c.paths[0], c.paths[1]
	feedRTT(p0, 50*time.Millisecond)
	feedRTT(p1, 20*time.Millisecond)
	primary, dups := c.schedule()
	if primary != p1 {
		t.Fatalf("picked path %d, want the 20ms path", primary.ID)
	}
	if len(dups) != 0 {
		t.Fatal("no duplication targets expected: both paths measured")
	}
}

func TestScheduleDuplicatesOntoUnmeasuredPath(t *testing.T) {
	c := newTestConn(t, DefaultConfig())
	p0, p1 := c.paths[0], c.paths[1]
	feedRTT(p0, 30*time.Millisecond)
	// p1 has no RTT sample.
	primary, dups := c.schedule()
	if primary != p0 {
		t.Fatalf("primary %d, want measured path 0", primary.ID)
	}
	if len(dups) != 1 || dups[0] != p1 {
		t.Fatalf("duplication targets %v, want path 1", dups)
	}
}

func TestScheduleNoDupAblation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheduler = SchedLowestRTTNoDup
	c := newTestConn(t, cfg)
	feedRTT(c.paths[0], 30*time.Millisecond)
	_, dups := c.schedule()
	if len(dups) != 0 {
		t.Fatal("nodup scheduler produced duplicates")
	}
}

func TestScheduleSkipsPotentiallyFailed(t *testing.T) {
	c := newTestConn(t, DefaultConfig())
	p0, p1 := c.paths[0], c.paths[1]
	feedRTT(p0, 10*time.Millisecond)
	feedRTT(p1, 90*time.Millisecond)
	p0.potentiallyFailed = true
	primary, _ := c.schedule()
	if primary != p1 {
		t.Fatal("scheduler used a potentially-failed path")
	}
	// All paths PF: fall back to using them anyway.
	p1.potentiallyFailed = true
	primary, _ = c.schedule()
	if primary == nil {
		t.Fatal("all-PF fallback missing")
	}
}

func TestScheduleSkipsRemotePF(t *testing.T) {
	c := newTestConn(t, DefaultConfig())
	p0, p1 := c.paths[0], c.paths[1]
	feedRTT(p0, 10*time.Millisecond)
	feedRTT(p1, 90*time.Millisecond)
	p0.remotePF = true
	primary, _ := c.schedule()
	if primary != p1 {
		t.Fatal("scheduler used a remote-PF path")
	}
}

func TestScheduleRespectsCwnd(t *testing.T) {
	c := newTestConn(t, DefaultConfig())
	p0, p1 := c.paths[0], c.paths[1]
	feedRTT(p0, 10*time.Millisecond)
	feedRTT(p1, 90*time.Millisecond)
	// Fill path 0's window: scheduler must fall back to path 1.
	c.fillCwnd(p0)
	primary, _ := c.schedule()
	if primary != p1 {
		t.Fatal("scheduler ignored a full congestion window")
	}
	c.fillCwnd(p1)
	primary, _ = c.schedule()
	if primary != nil {
		t.Fatal("scheduler returned a path with no window space")
	}
}

// fillCwnd tracks fake in-flight packets until the window is full.
func (c *Conn) fillCwnd(p *Path) {
	for p.cwndAvailable(wire.MaxPacketSize) {
		p.space.OnPacketSent(&recovery.SentPacket{
			PN:              p.space.NextPacketNumber(),
			Size:            wire.MaxPacketSize + wire.UDPIPv4Overhead,
			SentTime:        c.now(),
			Retransmittable: true,
		})
	}
}

func TestScheduleRoundRobinRotates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheduler = SchedRoundRobin
	c := newTestConn(t, cfg)
	feedRTT(c.paths[0], 10*time.Millisecond)
	feedRTT(c.paths[1], 90*time.Millisecond)
	a, _ := c.schedule()
	b, _ := c.schedule()
	if a == b {
		t.Fatal("round-robin did not rotate")
	}
}

func TestScheduleBLESTWaitsInsteadOfBlocking(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheduler = SchedBLEST
	cfg.ConnWindow = 64 << 10 // tiny send window
	c := newTestConn(t, cfg)
	p0, p1 := c.paths[0], c.paths[1]
	feedRTT(p0, 10*time.Millisecond)
	feedRTT(p1, 500*time.Millisecond)
	// Fast path full; slow path free; the fast path could push the
	// whole 64 KB window within one slow-path RTT → BLEST waits.
	c.fillCwnd(p0)
	primary, _ := c.schedule()
	if primary != nil {
		t.Fatalf("BLEST used the blocking slow path (%v)", primary.ID)
	}
	// With an ample window it uses the slow path.
	c.connFC.UpdateSendLimit(1 << 30)
	primary, _ = c.schedule()
	if primary != p1 {
		t.Fatal("BLEST refused a safe slow path")
	}
}

// TestScheduleAllocFree pins the scheduler's per-packet cost: the
// candidate and duplicate lists are connection-owned scratch, so a
// decision allocates nothing — neither with both paths measured, nor
// while an unmeasured path collects duplicates, nor with every path
// potentially failed (the fallback list).
func TestScheduleAllocFree(t *testing.T) {
	c := newTestConn(t, DefaultConfig())
	p0, p1 := c.paths[0], c.paths[1]
	feedRTT(p0, 50*time.Millisecond)
	check := func(name string, wantDups int) {
		t.Helper()
		c.schedule() // size the scratch
		allocs := testing.AllocsPerRun(100, func() {
			primary, dups := c.schedule()
			if primary == nil || len(dups) != wantDups {
				t.Fatalf("%s: primary %v, %d duplicates", name, primary, len(dups))
			}
		})
		if allocs > 0 {
			t.Errorf("%s: schedule allocates %.1f/op, want 0", name, allocs)
		}
	}
	check("one unmeasured path", 1)
	feedRTT(p1, 20*time.Millisecond)
	check("both measured", 0)
	p0.potentiallyFailed, p1.remotePF = true, true
	check("all potentially failed", 0)
}

// Paths and streams are walked in creation order — never in ID order,
// never in map order. The scheduler's tie-breaks (the first of two
// equally good paths wins), the PATHS frame layout, which stream fills
// a packet first, and so every golden artifact depend on it. Locally
// created and peer-created entries interleave as they appeared.
func TestPathsAndStreamsKeepCreationOrder(t *testing.T) {
	clock := sim.NewClock()
	nw := netem.New(clock, sim.NewRand(1))
	c := newConn(nw, RoleClient, 1, DefaultConfig(), []netem.Addr{"a0"}, []netem.Addr{"b0"})
	c.handshakeComplete = true
	c.addPath(0, "a0", "b0")
	c.addPath(3, "a3", "b3") // IDs do not arrive sorted
	c.addPath(2, "a2", "b2")
	var opened []wire.StreamID
	c.OnStreamOpen(func(s *Stream) { opened = append(opened, s.ID()) })
	peerOpens := func(id wire.StreamID) { c.handleStreamFrame(&wire.StreamFrame{StreamID: id}) }
	s3 := c.OpenStream()
	peerOpens(8)
	s5 := c.OpenStream()
	peerOpens(2)
	peerOpens(8) // known: must not be added twice
	if s3.ID() != 3 || s5.ID() != 5 {
		t.Fatalf("local streams got IDs %d and %d, want 3 and 5", s3.ID(), s5.ID())
	}

	pathIDs := func(ps []*Path) (ids []wire.PathID) {
		for _, p := range ps {
			ids = append(ids, p.ID)
		}
		return ids
	}
	if got := pathIDs(c.Paths()); !slices.Equal(got, []wire.PathID{0, 3, 2}) {
		t.Errorf("Paths() in order %v, want creation order [0 3 2]", got)
	}
	var streamIDs []wire.StreamID
	for _, s := range c.streams {
		streamIDs = append(streamIDs, s.id)
	}
	if !slices.Equal(streamIDs, []wire.StreamID{3, 8, 5, 2}) {
		t.Errorf("streams in order %v, want creation order [3 8 5 2]", streamIDs)
	}
	if !slices.Equal(opened, []wire.StreamID{8, 2}) {
		t.Errorf("OnStreamOpen fired for %v, want once each for 8 and 2", opened)
	}
	for _, id := range []wire.PathID{0, 3, 2} {
		if p := c.PathByID(id); p == nil || p.ID != id {
			t.Errorf("PathByID(%d) = %v", id, p)
		}
	}
	for _, id := range streamIDs {
		if s := c.StreamByID(id); s == nil || s.ID() != id {
			t.Errorf("StreamByID(%d) = %v", id, s)
		}
	}
	if c.PathByID(1) != nil || c.StreamByID(4) != nil {
		t.Error("lookup of an unknown ID returned something")
	}
	// Paths hands out a copy, not the connection's list.
	c.Paths()[0] = nil
	if c.paths[0] == nil {
		t.Error("Paths() exposed the connection's own slice")
	}

	// What the peer and the wire see follows the same order.
	c.queuePathsFrame()
	pf := c.paths[0].ctrl[0].(*wire.PathsFrame)
	var advertised []wire.PathID
	for _, info := range pf.Paths {
		advertised = append(advertised, info.PathID)
	}
	if !slices.Equal(advertised, []wire.PathID{0, 3, 2}) {
		t.Errorf("PATHS frame lists %v, want [0 3 2]", advertised)
	}
	for _, s := range c.streams {
		s.send.WriteSynthetic(10)
	}
	var acked pathSet
	frames, _, _ := c.packFrames(c.paths[1], &acked)
	var packed []wire.StreamID
	for _, f := range frames {
		if sf, ok := f.(*wire.StreamFrame); ok {
			packed = append(packed, sf.StreamID)
		}
	}
	if !slices.Equal(packed, []wire.StreamID{3, 8, 5, 2}) {
		t.Errorf("packet carries streams %v, want [3 8 5 2]", packed)
	}
}

// TestPerPacketLoopsAllocFree pins the loops every receive and every
// send runs over all paths and streams: re-arming the connection timer
// and asking whether anything is sendable walk the lists and allocate
// nothing.
func TestPerPacketLoopsAllocFree(t *testing.T) {
	c := newTestConn(t, DefaultConfig())
	p0, p1 := c.paths[0], c.paths[1]
	feedRTT(p0, 50*time.Millisecond)
	feedRTT(p1, 20*time.Millisecond)
	c.fillCwnd(p0) // an RTO deadline to find
	s := c.OpenStream()
	c.OpenStream()
	s.send.WriteSynthetic(1 << 20)

	c.resetTimer()
	if !c.timer.Armed() {
		t.Fatal("resetTimer found no deadline")
	}
	if allocs := testing.AllocsPerRun(100, c.resetTimer); allocs > 0 {
		t.Errorf("resetTimer allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if !c.hasSendableData() {
			t.Fatal("a stream with unsent data is not sendable")
		}
	}); allocs > 0 {
		t.Errorf("hasSendableData allocates %.1f/op, want 0", allocs)
	}
}
