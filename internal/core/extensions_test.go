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
