package core_test

import (
	"testing"
	"time"

	"mpquic/internal/apps"
	"mpquic/internal/cc"
	"mpquic/internal/core"
	"mpquic/internal/netem"
	"mpquic/internal/sim"
	"mpquic/internal/trace"
)

// TestTracerReceivesLifecycleEvents: a traced transfer produces the
// expected event mix.
func TestTracerReceivesLifecycleEvents(t *testing.T) {
	cfg := core.DefaultConfig()
	counter := trace.NewCounter()
	cfg.Tracer = counter
	h := newHarness(t, cfg, core.DefaultConfig(), symSpecs(10, 20*time.Millisecond))
	apps.NewGetServer(h.listener)
	var res *apps.GetResult
	apps.NewGetClient(h.client, 1<<20, func() time.Duration { return h.clock.Now().Duration() },
		func(r apps.GetResult) { res = &r })
	h.run(t, 30*time.Second)
	if res == nil {
		t.Fatal("transfer failed")
	}
	if counter.Counts[trace.HandshakeDone] != 1 {
		t.Fatalf("handshake events: %d", counter.Counts[trace.HandshakeDone])
	}
	if counter.Counts[trace.PathOpened] != 2 {
		t.Fatalf("path events: %d", counter.Counts[trace.PathOpened])
	}
	if counter.Counts[trace.PacketSent] == 0 || counter.Counts[trace.PacketReceived] == 0 {
		t.Fatal("no packet events")
	}
	// The client mostly receives; sent events must cover both paths.
	if len(counter.ByPath) < 2 {
		t.Fatalf("events on %d paths", len(counter.ByPath))
	}
}

// TestTracerSeesLossesAndRTO under a dead path.
func TestTracerSeesLossesAndRTO(t *testing.T) {
	cfg := core.DefaultConfig()
	counter := trace.NewCounter()
	cfg.Tracer = counter
	// Path 0 has the lower RTT so requests stick to it until it dies.
	specs := [2]netem.PathSpec{
		{CapacityMbps: 10, RTT: 15 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
		{CapacityMbps: 10, RTT: 25 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
	}
	h := newHarness(t, cfg, core.DefaultConfig(), specs)
	apps.NewEchoServer(h.listener)
	apps.NewReqRespClient(h.client, h.clock, 6*time.Second)
	h.clock.At(h.clock.Now().Add(2*time.Second), func() { h.tp.KillPath(0) })
	h.run(t, 8*time.Second)
	if counter.Counts[trace.RTOFired] == 0 {
		t.Fatal("no RTO traced on the dead path")
	}
	if counter.Counts[trace.PathFailed] == 0 {
		t.Fatal("no PF event traced")
	}
}

// TestLIACongestionControlTransfer: the LIA extension completes and
// aggregates.
func TestLIACongestionControlTransfer(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.CC = core.CCLia
	h := newHarness(t, cfg, cfg, symSpecs(10, 30*time.Millisecond))
	apps.NewGetServer(h.listener)
	var res *apps.GetResult
	apps.NewGetClient(h.client, 4<<20, func() time.Duration { return h.clock.Now().Duration() },
		func(r apps.GetResult) { res = &r })
	h.run(t, 60*time.Second)
	if res == nil {
		t.Fatal("LIA transfer failed")
	}
	if res.GoodputBps() < 12e6 {
		t.Fatalf("LIA did not aggregate: %.2f Mbps", res.GoodputBps()/1e6)
	}
	srv := h.serverConn(t)
	if _, ok := srv.Paths()[0].CC().(*cc.LiaPath); !ok {
		t.Fatalf("cc %T", srv.Paths()[0].CC())
	}
}

// TestBLESTSchedulerAvoidsBlockingSlowPath: with a tiny connection
// window and wildly heterogeneous paths, BLEST parks less data on the
// slow path than the plain lowest-RTT scheduler.
func TestBLESTSchedulerAvoidsBlockingSlowPath(t *testing.T) {
	specs := [2]netem.PathSpec{
		{CapacityMbps: 20, RTT: 10 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
		{CapacityMbps: 1, RTT: 400 * time.Millisecond, QueueDelay: 400 * time.Millisecond},
	}
	slowPathBytes := func(sched core.SchedulerKind) uint64 {
		cfg := core.DefaultConfig()
		cfg.Scheduler = sched
		cfg.ConnWindow = 256 << 10
		cfg.StreamWindow = 256 << 10
		h := newHarness(t, cfg, cfg, specs)
		apps.NewGetServer(h.listener)
		var res *apps.GetResult
		apps.NewGetClient(h.client, 4<<20, func() time.Duration { return h.clock.Now().Duration() },
			func(r apps.GetResult) { res = &r })
		h.run(t, 300*time.Second)
		if res == nil {
			t.Fatalf("%v transfer failed", sched)
		}
		return h.serverConn(t).PathByID(1).SentBytes
	}
	blest := slowPathBytes(core.SchedBLEST)
	lowest := slowPathBytes(core.SchedLowestRTT)
	if blest >= lowest {
		t.Fatalf("BLEST sent %d bytes on the slow path, lowest-RTT sent %d", blest, lowest)
	}
}

// TestTailReinjectionCutsTail: when a path silently blackholes its
// forward direction mid-transfer, the data stranded there gates the
// transfer until the path's RTO fires — unless tail reinjection lets
// the healthy path deliver those bytes as soon as it runs dry.
func TestTailReinjectionCutsTail(t *testing.T) {
	specs := [2]netem.PathSpec{
		{CapacityMbps: 10, RTT: 50 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
		{CapacityMbps: 10, RTT: 50 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
	}
	run := func(tail bool) (time.Duration, uint64) {
		cfg := core.DefaultConfig()
		cfg.TailReinjection = tail
		h := newHarness(t, cfg, cfg, specs)
		apps.NewGetServer(h.listener)
		var res *apps.GetResult
		apps.NewGetClient(h.client, 512<<10, func() time.Duration { return h.clock.Now().Duration() },
			func(r apps.GetResult) { res = &r })
		h.clock.At(sim.Time(400*time.Millisecond), func() { h.tp.Fwd[1].SetDown(true) })
		h.run(t, 60*time.Second)
		if res == nil {
			t.Fatalf("transfer failed (tail=%v)", tail)
		}
		return res.Elapsed(), h.serverConn(t).Stats.TailReinjections
	}
	withTail, reinjections := run(true)
	withoutTail, zero := run(false)
	if zero != 0 {
		t.Fatal("reinjection fired while disabled")
	}
	if reinjections == 0 {
		t.Fatal("tail reinjection never fired")
	}
	// Reinjection must beat the RTO-gated recovery decisively (the
	// gap is roughly the dead path's remaining RTO delay).
	if withTail+100*time.Millisecond > withoutTail {
		t.Fatalf("tail reinjection did not cut the tail: %v vs %v", withTail, withoutTail)
	}
}

// TestPFProbingRecoversTemporarilyDeadPath: a path that fails and
// later heals is re-detected by PING probes, cleared of its
// potentially-failed state, and used again.
func TestPFProbingRecoversTemporarilyDeadPath(t *testing.T) {
	specs := [2]netem.PathSpec{
		{CapacityMbps: 10, RTT: 15 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
		{CapacityMbps: 10, RTT: 25 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
	}
	mp := core.DefaultConfig()
	h := newHarness(t, mp, mp, specs)
	apps.NewEchoServer(h.listener)
	rr := apps.NewReqRespClient(h.client, h.clock, 20*time.Second)
	// Path 0 dies at 2 s and heals at 6 s.
	h.clock.At(sim.Time(2*time.Second), func() { h.tp.KillPath(0) })
	h.clock.At(sim.Time(6*time.Second), func() {
		h.tp.Fwd[0].SetDown(false)
		h.tp.Rev[0].SetDown(false)
	})
	h.run(t, 25*time.Second)
	p0 := h.client.PathByID(0)
	if p0.PotentiallyFailed() {
		t.Fatal("healed path still potentially failed — probing broken")
	}
	// Traffic returns to the lower-RTT path: late samples run at its
	// ~16 ms delay again rather than path 1's ~26 ms.
	var late []time.Duration
	for _, s := range rr.Samples() {
		if s.SentAt > 15*time.Second {
			late = append(late, s.Delay)
		}
	}
	if len(late) == 0 {
		t.Fatal("no late samples")
	}
	for _, d := range late {
		if d > 20*time.Millisecond {
			t.Fatalf("late delay %v — traffic never returned to the healed path", d)
		}
	}
}

// TestTailReinjectionNoSignificantHarm: on an ordinary heterogeneous
// transfer the extension may fire but must not slow things down
// noticeably (the duplicates ride otherwise-idle window space).
func TestTailReinjectionNoSignificantHarm(t *testing.T) {
	specs := [2]netem.PathSpec{
		{CapacityMbps: 10, RTT: 20 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
		{CapacityMbps: 5, RTT: 300 * time.Millisecond, QueueDelay: 100 * time.Millisecond},
	}
	run := func(tail bool) time.Duration {
		cfg := core.DefaultConfig()
		cfg.TailReinjection = tail
		h := newHarness(t, cfg, cfg, specs)
		apps.NewGetServer(h.listener)
		var res *apps.GetResult
		apps.NewGetClient(h.client, 4<<20, func() time.Duration { return h.clock.Now().Duration() },
			func(r apps.GetResult) { res = &r })
		h.run(t, 120*time.Second)
		if res == nil {
			t.Fatalf("transfer failed (tail=%v)", tail)
		}
		return res.Elapsed()
	}
	withTail := run(true)
	withoutTail := run(false)
	if float64(withTail) > float64(withoutTail)*1.02 {
		t.Fatalf("tail reinjection cost too much: %v vs %v", withTail, withoutTail)
	}
}

// TestZeroRTTSavesOneRoundTrip: with a cached server config the client
// places the request in its very first flight, completing a short
// transfer one RTT sooner than the 1-RTT handshake.
func TestZeroRTTSavesOneRoundTrip(t *testing.T) {
	run := func(zeroRTT bool) time.Duration {
		cfg := core.DefaultConfig()
		cfg.ZeroRTT = zeroRTT
		h := newHarness(t, cfg, cfg, symSpecs(10, 40*time.Millisecond))
		apps.NewGetServer(h.listener)
		var res *apps.GetResult
		apps.NewGetClient(h.client, 32<<10, func() time.Duration { return h.clock.Now().Duration() },
			func(r apps.GetResult) { res = &r })
		h.run(t, 10*time.Second)
		if res == nil {
			t.Fatalf("transfer failed (0rtt=%v)", zeroRTT)
		}
		return res.Elapsed()
	}
	zero := run(true)
	one := run(false)
	saved := one - zero
	// One RTT is 40 ms; allow serialization slack.
	if saved < 30*time.Millisecond || saved > 60*time.Millisecond {
		t.Fatalf("0-RTT saved %v, want ~1 RTT (40ms): %v vs %v", saved, zero, one)
	}
}

// TestZeroRTTWithCryptoAndWireMode: the resumption keys must agree on
// both sides under real AEAD and full serialization.
func TestZeroRTTWithCryptoAndWireMode(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.ZeroRTT = true
	cfg.EnableCrypto = true
	cfg.WireSerialization = true
	h := newHarness(t, cfg, cfg, symSpecs(10, 30*time.Millisecond))
	apps.NewGetServer(h.listener)
	var res *apps.GetResult
	apps.NewGetClient(h.client, 256<<10, func() time.Duration { return h.clock.Now().Duration() },
		func(r apps.GetResult) { res = &r })
	h.run(t, 10*time.Second)
	if res == nil {
		t.Fatal("0-RTT transfer with AEAD failed")
	}
}

// TestZeroRTTRejectedWithoutServerSupport: a server without the cached
// config cannot decrypt 0-RTT data; the connection must not complete
// (a real stack would fall back to 1-RTT — the model rejects).
func TestZeroRTTRejectedWithoutServerSupport(t *testing.T) {
	clientCfg := core.DefaultConfig()
	clientCfg.ZeroRTT = true
	clientCfg.EnableCrypto = true
	clientCfg.WireSerialization = true
	serverCfg := core.DefaultConfig()
	serverCfg.EnableCrypto = true
	serverCfg.WireSerialization = true
	h := newHarness(t, clientCfg, serverCfg, symSpecs(10, 30*time.Millisecond))
	apps.NewGetServer(h.listener)
	var res *apps.GetResult
	apps.NewGetClient(h.client, 32<<10, func() time.Duration { return h.clock.Now().Duration() },
		func(r apps.GetResult) { res = &r })
	h.run(t, 5*time.Second)
	if res != nil {
		t.Fatal("server without cached config accepted 0-RTT data")
	}
}
