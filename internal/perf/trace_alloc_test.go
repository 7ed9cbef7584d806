package perf

import (
	"testing"
	"time"

	"mpquic/internal/apps"
	"mpquic/internal/core"
	"mpquic/internal/netem"
	"mpquic/internal/sim"
	"mpquic/internal/trace"
)

// Allocation budgets for the observability layer: tracing must be free
// when disabled and O(1)-cheap, zero-alloc per event when armed — a
// flight recorder on every grid run may not slow the grid down.

func TestFlightRecorderTraceAllocFree(t *testing.T) {
	r := trace.NewFlightRecorder(128)
	ev := trace.Event{Time: time.Second, Type: trace.PacketSent, Path: 1, PN: 42, Size: 1350}
	allocs := testing.AllocsPerRun(1000, func() { r.Trace(ev) })
	if allocs > 0 {
		t.Errorf("FlightRecorder.Trace allocates %.1f/op, want 0 (ring is preallocated)", allocs)
	}
}

// runTraceTransfer drives one same-seed two-path MPQUIC download with
// the given tracer attached to both endpoints.
func runTraceTransfer(tr trace.Tracer) {
	clock := sim.NewClock()
	clock.Limit = 50_000_000
	tp := netem.NewTwoPath(clock, sim.NewRand(7), [2]netem.PathSpec{
		{CapacityMbps: 8, RTT: 20 * time.Millisecond, QueueDelay: 20 * time.Millisecond},
		{CapacityMbps: 4, RTT: 40 * time.Millisecond, QueueDelay: 20 * time.Millisecond},
	})
	cfg := core.DefaultConfig()
	cfg.HandshakeSeed = 7
	cfg.Tracer = tr
	lis := core.Listen(tp.Net, cfg, tp.ServerAddrs[:])
	apps.NewGetServer(lis)
	client := core.Dial(tp.Net, cfg, core.NewConnID(7), tp.ClientAddrs[:], tp.ServerAddrs[:])
	now := func() time.Duration { return clock.Now().Duration() }
	apps.NewGetClient(client, 256<<10, now, func(apps.GetResult) { clock.Stop() })
	if err := clock.RunUntil(sim.Time(time.Minute)); err != nil {
		panic(err)
	}
}

// An armed flight recorder must add no per-packet allocations over the
// nil-tracer baseline: the ~500 packets of this transfer would blow
// the slack immediately if Trace (or the Event construction feeding
// it) allocated per event. The small slack absorbs the constant-count
// per-connection events whose Detail strings are built on attach.
func TestArmedFlightRecorderAllocParity(t *testing.T) {
	if testing.Short() {
		t.Skip("full-transfer allocation measurement")
	}
	base := testing.AllocsPerRun(3, func() { runTraceTransfer(nil) })
	fr := trace.NewFlightRecorder(trace.DefaultFlightEvents)
	armed := testing.AllocsPerRun(3, func() { runTraceTransfer(fr) })
	const slack = 50
	if armed > base+slack {
		t.Errorf("armed flight recorder allocates %.0f/run vs %.0f/run nil-tracer: tracing leaks per-packet garbage", armed, base)
	}
}
