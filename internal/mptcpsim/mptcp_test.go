package mptcpsim

import (
	"testing"
	"time"

	"mpquic/internal/apps"
	"mpquic/internal/netem"
	"mpquic/internal/sim"
	"mpquic/internal/tcpsim"
)

// get arms a size-byte GET on c, timed by clock, and returns the
// result it fills in when the last byte is consumed: Size stays 0
// until then.
func get(c tcpsim.GetConn, clock *sim.Clock, size uint64) *apps.GetResult {
	res := new(apps.GetResult)
	tcpsim.GetOverTCP(c, size, func() time.Duration { return clock.Now().Duration() }, func(r apps.GetResult) { *res = r })
	return res
}

type mpHarness struct {
	clock  *sim.Clock
	tp     *netem.TwoPathNet
	lis    *Listener
	client *Conn
}

func newMPHarness(t *testing.T, cfg Config, specs [2]netem.PathSpec) *mpHarness {
	t.Helper()
	clock := sim.NewClock()
	clock.Limit = 30_000_000
	tp := netem.NewTwoPath(clock, sim.NewRand(11), specs)
	h := &mpHarness{clock: clock, tp: tp}
	h.lis = ListenMPTCP(tp.Net, cfg, tp.ServerAddrs[:])
	h.client = DialMPTCP(tp.Net, cfg, 0x5555, tp.ClientAddrs[:], tp.ServerAddrs[:])
	return h
}

func (h *mpHarness) run(t *testing.T, until time.Duration) {
	t.Helper()
	if err := h.clock.RunUntil(sim.Time(until)); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func symSpecs(mbps float64, rtt time.Duration) [2]netem.PathSpec {
	return [2]netem.PathSpec{
		{CapacityMbps: mbps, RTT: rtt, QueueDelay: 100 * time.Millisecond},
		{CapacityMbps: mbps, RTT: rtt, QueueDelay: 100 * time.Millisecond},
	}
}

func TestMPTCPEstablishesAndJoins(t *testing.T) {
	h := newMPHarness(t, DefaultConfig(), symSpecs(10, 40*time.Millisecond))
	var estAt time.Duration
	h.client.OnEstablished(func() { estAt = h.clock.Now().Duration() })
	h.run(t, 2*time.Second)
	if !h.client.subflows[0].Established() {
		t.Fatal("not established")
	}
	// 3 RTTs (TCP 3WHS + TLS 1.2).
	if estAt < 120*time.Millisecond || estAt > 140*time.Millisecond {
		t.Fatalf("established at %v, want ~120ms", estAt)
	}
	// The join completes one RTT after establishment.
	if len(h.client.subflows) != 2 {
		t.Fatalf("%d subflows", len(h.client.subflows))
	}
	sf1 := h.client.SubflowByID(1)
	if !sf1.Established() {
		t.Fatal("join did not complete")
	}
	if join := sf1.Stats.EstablishedAt - estAt; join < 40*time.Millisecond || join > 60*time.Millisecond {
		t.Fatalf("join took %v, want ~1 RTT", join)
	}
}

func TestMPTCPTransferCompletes(t *testing.T) {
	h := newMPHarness(t, DefaultConfig(), symSpecs(10, 30*time.Millisecond))
	tcpsim.ServeGet(h.lis, 2<<20)
	res := get(h.client, h.clock, 2<<20)
	h.run(t, 120*time.Second)
	if res.Size == 0 {
		t.Fatal("download did not finish")
	}
	if res.Elapsed() > 10*time.Second {
		t.Fatalf("took %v", res.Elapsed())
	}
}

func TestMPTCPAggregatesBandwidth(t *testing.T) {
	size := uint64(4 << 20)
	// Multipath run.
	h := newMPHarness(t, DefaultConfig(), symSpecs(10, 30*time.Millisecond))
	tcpsim.ServeGet(h.lis, size)
	mpRes := get(h.client, h.clock, size)
	h.run(t, 120*time.Second)
	if mpRes.Size == 0 {
		t.Fatal("mptcp did not finish")
	}
	// Both subflows moved real data.
	srv := h.lis.Conns()[0]
	for _, sf := range srv.subflows {
		if sf.DataBytesSent < uint64(1<<20) {
			t.Fatalf("subflow %d sent only %d data bytes", sf.ID, sf.DataBytesSent)
		}
	}
	// Faster than the 10 Mbps single-path floor for 4 MiB (~3.4 s).
	if mpRes.Elapsed() > 3200*time.Millisecond {
		t.Fatalf("no aggregation: %v", mpRes.Elapsed())
	}
}

func TestMPTCPSurvivesRandomLoss(t *testing.T) {
	specs := symSpecs(10, 30*time.Millisecond)
	specs[0].LossRate = 0.02
	specs[1].LossRate = 0.02
	h := newMPHarness(t, DefaultConfig(), specs)
	tcpsim.ServeGet(h.lis, 1<<20)
	res := get(h.client, h.clock, 1<<20)
	h.run(t, 300*time.Second)
	if res.Size == 0 {
		t.Fatal("did not survive loss")
	}
}

func TestMPTCPHandoverViaPotentiallyFailed(t *testing.T) {
	specs := [2]netem.PathSpec{
		{CapacityMbps: 10, RTT: 15 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
		{CapacityMbps: 10, RTT: 25 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
	}
	h := newMPHarness(t, DefaultConfig(), specs)
	tcpsim.ServeGet(h.lis, 8<<20)
	res := get(h.client, h.clock, 8<<20)
	// Kill path 0 mid-transfer.
	h.clock.At(sim.Time(2*time.Second), func() { h.tp.KillPath(0) })
	h.run(t, 300*time.Second)
	if res.Size == 0 {
		t.Fatal("transfer did not survive path failure")
	}
	srv := h.lis.Conns()[0]
	sf0 := srv.SubflowByID(0)
	if !sf0.potentiallyFailed {
		t.Fatal("failed subflow not marked PF")
	}
	if srv.Stats.Reinjections == 0 {
		t.Fatal("no reinjection after path failure")
	}
}

func TestMPTCPReceiveWindowSharedAcrossSubflows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecvWindow = 128 << 10
	// High-BDP paths: window binds well below path capacity.
	specs := [2]netem.PathSpec{
		{CapacityMbps: 50, RTT: 200 * time.Millisecond, QueueDelay: 200 * time.Millisecond},
		{CapacityMbps: 50, RTT: 200 * time.Millisecond, QueueDelay: 200 * time.Millisecond},
	}
	h := newMPHarness(t, cfg, specs)
	tcpsim.ServeGet(h.lis, 2<<20)
	res := get(h.client, h.clock, 2<<20)
	h.run(t, 300*time.Second)
	if res.Size == 0 {
		t.Fatal("did not finish")
	}
	// Window-limited: ≤ rwnd/RTT = 128KB/200ms ≈ 5.2 Mbps across both.
	if gp := res.GoodputBps() / 1e6; gp > 7 {
		t.Fatalf("goodput %.1f Mbps exceeds shared window bound", gp)
	}
}

func TestMPTCPORPTriggersOnWindowStall(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecvWindow = 256 << 10
	// Heterogeneous paths: slow path holds data the window needs.
	specs := [2]netem.PathSpec{
		{CapacityMbps: 20, RTT: 10 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
		{CapacityMbps: 0.5, RTT: 300 * time.Millisecond, QueueDelay: 500 * time.Millisecond},
	}
	h := newMPHarness(t, cfg, specs)
	tcpsim.ServeGet(h.lis, 4<<20)
	res := get(h.client, h.clock, 4<<20)
	h.run(t, 600*time.Second)
	if res.Size == 0 {
		t.Fatal("did not finish")
	}
	srv := h.lis.Conns()[0]
	if srv.Stats.Reinjections == 0 {
		t.Skip("no window stall occurred in this configuration")
	}
	if srv.Stats.Penalizations == 0 {
		t.Fatal("reinjection without penalization")
	}
}

func TestMPTCPORPAblationDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ORP = false
	cfg.RecvWindow = 256 << 10
	specs := [2]netem.PathSpec{
		{CapacityMbps: 20, RTT: 10 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
		{CapacityMbps: 0.5, RTT: 300 * time.Millisecond, QueueDelay: 500 * time.Millisecond},
	}
	h := newMPHarness(t, cfg, specs)
	tcpsim.ServeGet(h.lis, 2<<20)
	res := get(h.client, h.clock, 2<<20)
	h.run(t, 900*time.Second)
	if res.Size == 0 {
		t.Fatal("did not finish without ORP")
	}
	if h.lis.Conns()[0].Stats.Penalizations != 0 {
		t.Fatal("penalization despite ORP disabled")
	}
}

func TestMPTCPSingleSubflowDegeneratesToTCP(t *testing.T) {
	clock := sim.NewClock()
	tp := netem.NewTwoPath(clock, sim.NewRand(3), symSpecs(10, 30*time.Millisecond))
	lis := ListenMPTCP(tp.Net, DefaultConfig(), tp.ServerAddrs[:1])
	client := DialMPTCP(tp.Net, DefaultConfig(), 0x77, tp.ClientAddrs[:1], tp.ServerAddrs[:1])
	tcpsim.ServeGet(lis, 1<<20)
	res := get(client, clock, 1<<20)
	clock.RunUntil(sim.Time(60 * time.Second))
	if res.Size == 0 {
		t.Fatal("single-subflow transfer failed")
	}
	if len(client.subflows) != 1 {
		t.Fatalf("%d subflows", len(client.subflows))
	}
}
