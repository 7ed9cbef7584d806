package tcpsim

import (
	"testing"
	"time"

	"mpquic/internal/apps"
	"mpquic/internal/netem"
	"mpquic/internal/sim"
	"mpquic/internal/stream"
)

// get arms a size-byte GET on c, timed by clock, and returns the
// result it fills in when the last byte is consumed: Size stays 0
// until then.
func get(c GetConn, clock *sim.Clock, size uint64) *apps.GetResult {
	res := new(apps.GetResult)
	GetOverTCP(c, size, func() time.Duration { return clock.Now().Duration() }, func(r apps.GetResult) { *res = r })
	return res
}

type tcpHarness struct {
	clock  *sim.Clock
	net    *netem.Network
	lis    *Listener
	client *Conn
	fwd    *netem.Link
	rev    *netem.Link
}

func newTCPHarness(t *testing.T, cfg Config, link netem.LinkConfig) *tcpHarness {
	t.Helper()
	clock := sim.NewClock()
	clock.Limit = 20_000_000
	nw := netem.New(clock, sim.NewRand(5))
	h := &tcpHarness{clock: clock, net: nw}
	h.fwd, h.rev = nw.Connect("c:1", "s:443", link)
	h.lis = ListenTCP(nw, cfg, "s:443")
	h.client = DialTCP(nw, cfg, "c:1", "s:443")
	return h
}

func (h *tcpHarness) run(t *testing.T, until time.Duration) {
	t.Helper()
	if err := h.clock.RunUntil(sim.Time(until)); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func link10M(rtt time.Duration) netem.LinkConfig {
	return netem.LinkConfig{RateMbps: 10, Delay: rtt / 2, QueueDelay: 100 * time.Millisecond}
}

func TestTCPHandshakeTakesThreeRTTsWithTLS(t *testing.T) {
	h := newTCPHarness(t, DefaultConfig(), link10M(40*time.Millisecond))
	var at time.Duration
	h.client.OnEstablished(func() { at = h.clock.Now().Duration() })
	h.run(t, 2*time.Second)
	if !h.client.Established() {
		t.Fatal("not established")
	}
	// 3 RTTs = 120 ms plus serialization of the small flights.
	if at < 120*time.Millisecond || at > 140*time.Millisecond {
		t.Fatalf("established at %v, want ~3 RTT (120ms)", at)
	}
}

func TestTCPTransferCompletesAndGoodput(t *testing.T) {
	h := newTCPHarness(t, DefaultConfig(), link10M(30*time.Millisecond))
	ServeGet(h.lis, 2<<20)
	res := get(h.client, h.clock, 2<<20)
	h.run(t, 60*time.Second)
	if res.Size == 0 {
		t.Fatal("download did not finish")
	}
	// 2 MiB at 10 Mbps ≈ 1.7 s floor.
	if res.Elapsed() < 1600*time.Millisecond || res.Elapsed() > 6*time.Second {
		t.Fatalf("download took %v", res.Elapsed())
	}
	gp := res.GoodputBps() / 1e6
	if gp < 2.5 || gp > 10 {
		t.Fatalf("goodput %.1f Mbps", gp)
	}
}

func TestTCPSurvivesRandomLoss(t *testing.T) {
	link := link10M(30 * time.Millisecond)
	link.LossRate = 0.02
	h := newTCPHarness(t, DefaultConfig(), link)
	ServeGet(h.lis, 1<<20)
	res := get(h.client, h.clock, 1<<20)
	h.run(t, 300*time.Second)
	if res.Size == 0 {
		t.Fatal("download did not survive 2% loss")
	}
	if h.client.Stats.RTOCount == 0 && h.lis.Conns()[0].Stats.RTOCount == 0 &&
		h.lis.Conns()[0].Stats.FastRetransmit == 0 {
		t.Fatal("no recovery activity despite loss")
	}
}

func TestTCPHandshakeSurvivesSYNLoss(t *testing.T) {
	link := link10M(30 * time.Millisecond)
	clock := sim.NewClock()
	nw := netem.New(clock, sim.NewRand(5))
	fwd, _ := nw.Connect("c:1", "s:443", link)
	lis := ListenTCP(nw, DefaultConfig(), "s:443")
	fwd.SetDown(true) // SYN will be lost
	client := DialTCP(nw, DefaultConfig(), "c:1", "s:443")
	clock.At(sim.Time(500*time.Millisecond), func() { fwd.SetDown(false) })
	clock.RunUntil(sim.Time(10 * time.Second))
	if !client.Established() {
		t.Fatal("handshake did not recover from SYN loss")
	}
	_ = lis
}

func TestTCPReceiveWindowLimitsSender(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecvWindow = 64 << 10 // tiny window
	// High-BDP link: 10 Mbps, 200 ms RTT → BDP 250 KB >> 64 KB window.
	h := newTCPHarness(t, cfg, netem.LinkConfig{RateMbps: 10, Delay: 100 * time.Millisecond, QueueDelay: 500 * time.Millisecond})
	ServeGet(h.lis, 1<<20)
	res := get(h.client, h.clock, 1<<20)
	h.run(t, 120*time.Second)
	if res.Size == 0 {
		t.Fatal("did not finish")
	}
	// Window-limited goodput ≈ rwnd/RTT = 64KB/200ms = 2.6 Mbps.
	gp := res.GoodputBps() / 1e6
	if gp > 3.5 {
		t.Fatalf("goodput %.1f Mbps exceeds window limit", gp)
	}
}

func TestTCPSACKLimitedToThreeBlocks(t *testing.T) {
	intervals := []stream.Interval{{Start: 10, End: 20}, {Start: 30, End: 40},
		{Start: 50, End: 60}, {Start: 70, End: 80}, {Start: 90, End: 100}}
	blocks := buildSACK(nil, intervals, 0)
	if len(blocks) != MaxSACKBlocks {
		t.Fatalf("got %d blocks, want %d", len(blocks), MaxSACKBlocks)
	}
	// Most recent (highest) first.
	if blocks[0].Start != 90 || blocks[2].Start != 50 {
		t.Fatalf("blocks %+v", blocks)
	}
}

func TestTCPSegmentWireSize(t *testing.T) {
	plain := &Segment{Len: MSS}
	if plain.WireSize() != MSS+headerBase {
		t.Fatalf("size %d", plain.WireSize())
	}
	withSACK := &Segment{Len: 0, SACK: []SACKBlock{{0, 1}, {2, 3}}}
	if withSACK.WireSize() != headerBase+sackOptionOverhead+2*sackBlockSize {
		t.Fatalf("size %d", withSACK.WireSize())
	}
	mp := &Segment{Len: 100, MP: true}
	if mp.WireSize() != 100+headerBase+20 {
		t.Fatalf("mp size %d", mp.WireSize())
	}
	// Full segment must fit the emulator MTU.
	if full := (&Segment{Len: MSS, MP: true, SACK: []SACKBlock{{0, 1}, {2, 3}, {4, 5}}}).WireSize(); full > netem.MTU {
		t.Fatalf("full segment %d exceeds MTU", full)
	}
}

func TestTCPKarnNoSampleFromRetransmission(t *testing.T) {
	link := link10M(30 * time.Millisecond)
	link.LossRate = 0.10 // heavy loss to force retransmissions
	h := newTCPHarness(t, DefaultConfig(), link)
	ServeGet(h.lis, 256<<10)
	res := get(h.client, h.clock, 256<<10)
	h.run(t, 600*time.Second)
	if res.Size == 0 {
		t.Fatal("did not finish under heavy loss")
	}
	srv := h.lis.Conns()[0]
	if srv.Stats.Retransmits == 0 {
		t.Fatal("no retransmissions under 10% loss")
	}
	// Coarse granularity: srtt should be a whole millisecond multiple.
	if srtt := srv.RTT().SmoothedRTT(); srtt == 0 {
		t.Fatal("no RTT samples at all")
	}
}

func TestTCPLostFinalTLSFlightIsResent(t *testing.T) {
	// The server's last TLS flight is lost once: it is established, the
	// client is not. The client's handshake timer resends its flight 2,
	// the server answers it with flight 2 again, and the GET completes.
	h := newTCPHarness(t, DefaultConfig(), link10M(40*time.Millisecond))
	finals, dropped := 0, false
	h.net.Register("c:1", netem.HandlerFunc(func(dg netem.Datagram) {
		if dg.Payload.(*Segment).Ctl == CtlTLSServer2 {
			finals++
			if !dropped {
				dropped = true
				return
			}
		}
		h.client.HandleDatagram(dg)
	}))
	ServeGet(h.lis, 256<<10)
	res := get(h.client, h.clock, 256<<10)
	h.run(t, 30*time.Second)
	if finals != 2 {
		t.Fatalf("server sent its final flight %d time(s), want 2", finals)
	}
	if res.Size == 0 {
		t.Fatal("download did not finish")
	}
	// Without the loss the client is established half an RTT after the
	// server; with it, a handshake timeout and a round trip later.
	srv := h.lis.Conns()[0]
	if hs := res.HandshakeDone; hs <= srv.Stats.EstablishedAt+40*time.Millisecond {
		t.Fatalf("client established at %v, server at %v: the lost flight cost nothing", hs, srv.Stats.EstablishedAt)
	}
}
