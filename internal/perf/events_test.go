package perf

import (
	"testing"
	"time"

	"mpquic/internal/apps"
	"mpquic/internal/core"
	"mpquic/internal/netem"
	"mpquic/internal/sim"
	"mpquic/internal/trace"
	"mpquic/internal/wire"
)

// Occupancy budgets for the event engine: the queue holds what is
// alive, and a link keeps its datagrams in flight out of it behind two
// timers, so its size follows the links and the armed timers — not the
// packets in flight, not the number of times a timer was re-armed, and
// not the length of the transfer. These pin the property, not how
// sim.Timer and netem.Link achieve it.

// eventOccupancy runs a two-path lossy MPQUIC download of size bytes
// and samples, every simulated millisecond, the clock's queue length
// and the sender's packets in flight. links is the topology's link count.
func eventOccupancy(t *testing.T, size uint64) (clock *sim.Clock, links, peakPending, peakInFlight int) {
	t.Helper()
	clock = sim.NewClock()
	clock.Limit = 50_000_000
	tp := netem.NewTwoPath(clock, sim.NewRand(7), [2]netem.PathSpec{
		{CapacityMbps: 20, RTT: 20 * time.Millisecond, QueueDelay: 50 * time.Millisecond, LossRate: 0.01},
		{CapacityMbps: 10, RTT: 40 * time.Millisecond, QueueDelay: 50 * time.Millisecond, LossRate: 0.01},
	})
	cfg := core.DefaultConfig()
	cfg.HandshakeSeed = 7
	lis := core.Listen(tp.Net, cfg, tp.ServerAddrs[:])
	apps.NewGetServer(lis)
	client := core.Dial(tp.Net, cfg, core.NewConnID(7), tp.ClientAddrs[:], tp.ServerAddrs[:])
	now := func() time.Duration { return clock.Now().Duration() }
	done := false
	apps.NewGetClient(client, size, now, func(apps.GetResult) { done = true; clock.Stop() })

	var sampler *sim.Timer
	sampler = sim.NewTimer(clock, func() {
		if n := clock.Pending(); n > peakPending {
			peakPending = n
		}
		var rec trace.SeriesRecorder
		for _, c := range lis.Conns() {
			c.SampleInto(&rec)
		}
		inFlight := 0
		for _, s := range rec.Samples {
			inFlight += s.InFlight
		}
		if n := inFlight / wire.MaxPacketSize; n > peakInFlight {
			peakInFlight = n
		}
		sampler.ResetAfter(time.Millisecond)
	})
	sampler.ResetAfter(time.Millisecond)
	if err := clock.RunUntil(sim.Time(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatalf("%d-byte transfer did not complete", size)
	}
	return clock, len(tp.Fwd) + len(tp.Rev), peakPending, peakInFlight
}

// Both connections re-arm their timer after every receive and every
// send, tens of thousands of times per transfer, and the idle deadline
// they move sits 30 s out: a re-arm that leaves a cancelled entry behind
// puts the queue's high-water mark two orders of magnitude above the
// live events and makes it grow with the transfer. A link that put its
// datagrams in the queue would make it follow the packets in flight.
func TestEventQueueFollowsLinks(t *testing.T) {
	if testing.Short() {
		t.Skip("full-transfer measurement")
	}
	clock, links, peak8, inFlight := eventOccupancy(t, 8<<20)
	t.Logf("8 MiB: %d events executed, queue peak %d, %d packets in flight at most",
		clock.Processed, peak8, inFlight)
	// Two timers per link, two connection timers and the sampler.
	if limit := 2*links + 3; peak8 > limit {
		t.Errorf("queue peaked at %d events over %d links (%d packets in flight), want <= %d", peak8, links, inFlight, limit)
	}
	_, _, peak32, _ := eventOccupancy(t, 32<<20)
	if 2*peak32 > 3*peak8 {
		t.Errorf("queue peak grew with the transfer: %d events at 8 MiB, %d at 32 MiB", peak8, peak32)
	}
}
