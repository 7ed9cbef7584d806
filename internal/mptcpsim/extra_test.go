package mptcpsim

import (
	"slices"
	"testing"
	"time"

	"mpquic/internal/netem"
	"mpquic/internal/sim"
	"mpquic/internal/tcpsim"
	"mpquic/internal/trace"
)

func TestMPTCPCoarseRTTGranularity(t *testing.T) {
	h := newMPHarness(t, DefaultConfig(), symSpecs(10, 33*time.Millisecond))
	tcpsim.ServeGet(h.lis, 1<<20)
	get(h.client, h.clock, 1<<20)
	h.run(t, 60*time.Second)
	for _, sf := range h.lis.Conns()[0].subflows {
		if sf.RTT().SmoothedRTT() == 0 {
			t.Fatalf("subflow %d has no RTT", sf.ID)
		}
		// Karn/coarse mode quantizes raw samples to milliseconds (the
		// smoothed value is a weighted average and need not be).
		if latest := sf.RTT().LatestRTT(); latest%time.Millisecond != 0 {
			t.Fatalf("subflow %d sample %v not millisecond-quantized", sf.ID, latest)
		}
	}
}

// tapWire re-registers every address of tp with a handler that hands
// each segment to inspect and then delivers it to the client or the
// listener, as the network would have.
func tapWire(tp *netem.TwoPathNet, client *Conn, lis *Listener, inspect func(*tcpsim.Segment)) {
	tap := func(addr netem.Addr, h netem.Handler) {
		tp.Net.Register(addr, netem.HandlerFunc(func(dg netem.Datagram) {
			inspect(dg.Payload.(*tcpsim.Segment))
			h.HandleDatagram(dg)
		}))
	}
	for i := range tp.ClientAddrs {
		tap(tp.ClientAddrs[i], client)
		tap(tp.ServerAddrs[i], lis)
	}
}

func TestMPTCPSegmentsCarryDSS(t *testing.T) {
	const size = 256 << 10
	clock := sim.NewClock()
	tp := netem.NewTwoPath(clock, sim.NewRand(4), symSpecs(10, 20*time.Millisecond))
	lis := ListenMPTCP(tp.Net, DefaultConfig(), tp.ServerAddrs[:])
	client := DialMPTCP(tp.Net, DefaultConfig(), 0xbeef, tp.ClientAddrs[:], tp.ServerAddrs[:])
	// Every segment must carry MP and the token, and every data
	// segment a DSS mapping inside the stream.
	dataSegs := 0
	tapWire(tp, client, lis, func(seg *tcpsim.Segment) {
		if !seg.MP || seg.Token != 0xbeef {
			t.Fatalf("segment without MP/token: %+v", seg)
		}
		if seg.Len > 0 && !seg.DataFinOnly && !seg.SYN && seg.Ctl == tcpsim.CtlNone {
			dataSegs++
			if end := seg.DataSeq + uint64(seg.Len); end > size {
				t.Fatalf("mapping [%d, %d) past the %d-byte stream", seg.DataSeq, end, size)
			}
		}
	})
	tcpsim.ServeGet(lis, size)
	res := get(client, clock, size)
	clock.RunUntil(sim.Time(30 * time.Second))
	if res.Size == 0 {
		t.Fatal("transfer failed")
	}
	if dataSegs == 0 {
		t.Fatal("no data segment crossed the wire")
	}
	// The data stream must have been fully mapped (exact byte count).
	if client.BytesReceived() != size {
		t.Fatalf("received %d bytes", client.BytesReceived())
	}
}

func TestMPTCPDataLevelReorderingAcrossSubflows(t *testing.T) {
	// Wildly different RTTs: data arrives out of order at the
	// connection level and must reassemble exactly.
	specs := [2]netem.PathSpec{
		{CapacityMbps: 10, RTT: 10 * time.Millisecond, QueueDelay: 100 * time.Millisecond},
		{CapacityMbps: 10, RTT: 200 * time.Millisecond, QueueDelay: 100 * time.Millisecond},
	}
	h := newMPHarness(t, DefaultConfig(), specs)
	tcpsim.ServeGet(h.lis, 2<<20)
	res := get(h.client, h.clock, 2<<20)
	h.run(t, 120*time.Second)
	if res.Size == 0 {
		t.Fatal("transfer failed")
	}
	if h.client.BytesReceived() != 2<<20 {
		t.Fatalf("byte count %d", h.client.BytesReceived())
	}
	// Both subflows must have carried data for reordering to matter.
	srv := h.lis.Conns()[0]
	for _, sf := range srv.subflows {
		if sf.DataBytesSent == 0 {
			t.Fatalf("subflow %d carried nothing", sf.ID)
		}
	}
}

func TestMPTCPSACKBlocksBounded(t *testing.T) {
	specs := symSpecs(10, 30*time.Millisecond)
	specs[0].LossRate = 0.05
	specs[1].LossRate = 0.05
	clock := sim.NewClock()
	tp := netem.NewTwoPath(clock, sim.NewRand(6), specs)
	lis := ListenMPTCP(tp.Net, DefaultConfig(), tp.ServerAddrs[:])
	client := DialMPTCP(tp.Net, DefaultConfig(), 0xcafe, tp.ClientAddrs[:], tp.ServerAddrs[:])
	dataSegs, sackBlocks := 0, 0
	tapWire(tp, client, lis, func(seg *tcpsim.Segment) {
		if len(seg.SACK) > tcpsim.MaxSACKBlocks {
			t.Fatalf("%d SACK blocks, limit %d", len(seg.SACK), tcpsim.MaxSACKBlocks)
		}
		sackBlocks += len(seg.SACK)
		if seg.Len > 0 && !seg.DataFinOnly {
			dataSegs++
		}
	})
	tcpsim.ServeGet(lis, 1<<20)
	res := get(client, clock, 1<<20)
	clock.RunUntil(sim.Time(300 * time.Second))
	if res.Size == 0 {
		t.Fatal("transfer failed under loss")
	}
	if dataSegs == 0 || sackBlocks == 0 {
		t.Fatalf("saw %d data segments and %d SACK blocks; want both", dataSegs, sackBlocks)
	}
}

func TestMPTCPIdleTimeout(t *testing.T) {
	// Establish, then go silent: the connection must close, on either
	// stack, and trace why. tr is the client's tracer.
	for _, st := range []struct {
		name string
		dial func(clock *sim.Clock, idle time.Duration, tr trace.Tracer) interface{ Closed() bool }
	}{
		{"tcp", func(clock *sim.Clock, idle time.Duration, tr trace.Tracer) interface{ Closed() bool } {
			cfg := tcpsim.DefaultConfig()
			cfg.IdleTimeout = idle
			nw := netem.New(clock, sim.NewRand(5))
			nw.Connect("c:1", "s:443", netem.LinkConfig{RateMbps: 10, Delay: 10 * time.Millisecond, QueueDelay: 100 * time.Millisecond})
			tcpsim.ListenTCP(nw, cfg, "s:443")
			cfg.Tracer = tr
			return tcpsim.DialTCP(nw, cfg, "c:1", "s:443")
		}},
		{"mptcp", func(clock *sim.Clock, idle time.Duration, tr trace.Tracer) interface{ Closed() bool } {
			cfg := DefaultConfig()
			cfg.IdleTimeout = idle
			tp := netem.NewTwoPath(clock, sim.NewRand(5), symSpecs(10, 20*time.Millisecond))
			ListenMPTCP(tp.Net, cfg, tp.ServerAddrs[:])
			cfg.Tracer = tr
			return DialMPTCP(tp.Net, cfg, 0x99, tp.ClientAddrs[:], tp.ServerAddrs[:])
		}},
	} {
		t.Run(st.name, func(t *testing.T) {
			clock := sim.NewClock()
			var log eventLog
			client := st.dial(clock, 2*time.Second, &log)
			clock.RunUntil(sim.Time(30 * time.Second))
			if !client.Closed() {
				t.Fatal("idle connection never closed")
			}
			var closes []string
			for _, ev := range log {
				if ev.Type == trace.ConnClosed {
					closes = append(closes, ev.Detail)
				}
			}
			if !slices.Equal(closes, []string{"tcpsim: idle timeout"}) {
				t.Fatalf("connection_closed details %q, want one idle timeout", closes)
			}
		})
	}
}

func TestMPTCPTokenDemux(t *testing.T) {
	// Two clients with different tokens share the listener.
	clock := sim.NewClock()
	specs := symSpecs(10, 20*time.Millisecond)
	tp := netem.NewTwoPath(clock, sim.NewRand(8), specs)
	lis := ListenMPTCP(tp.Net, DefaultConfig(), tp.ServerAddrs[:])
	tcpsim.ServeGet(lis, 64<<10)
	// Second client needs its own source addresses.
	extraLocal := [2]netem.Addr{"10.0.1.2:1000", "10.0.2.2:1000"}
	for i := 0; i < 2; i++ {
		spec := specs[i]
		tp.Net.Connect(extraLocal[i], tp.ServerAddrs[i], netem.LinkConfig{
			RateMbps: spec.CapacityMbps, Delay: spec.RTT / 2, QueueDelay: spec.QueueDelay,
		})
	}
	c1 := DialMPTCP(tp.Net, DefaultConfig(), 0x01, tp.ClientAddrs[:], tp.ServerAddrs[:])
	c2 := DialMPTCP(tp.Net, DefaultConfig(), 0x02, extraLocal[:], tp.ServerAddrs[:])
	r1, r2 := get(c1, clock, 64<<10), get(c2, clock, 64<<10)
	clock.RunUntil(sim.Time(30 * time.Second))
	if r1.Size == 0 || r2.Size == 0 {
		t.Fatalf("clients finished: %v, %v; want both", r1.Size != 0, r2.Size != 0)
	}
	if len(lis.Conns()) != 2 {
		t.Fatalf("listener demuxed %d connections", len(lis.Conns()))
	}
}

// The counterpart of tcpsim's TestTCPDupAcksDoNotInflateWindowAccounting
// for every subflow: after a complete transfer without random loss
// everything settles, retransmissions included.
func TestMPTCPSubflowAccountingSettles(t *testing.T) {
	h := newMPHarness(t, DefaultConfig(), symSpecs(10, 20*time.Millisecond))
	tcpsim.ServeGet(h.lis, 512<<10)
	res := get(h.client, h.clock, 512<<10)
	h.run(t, 30*time.Second)
	if res.Size == 0 {
		t.Fatal("transfer failed")
	}
	for _, sf := range h.lis.Conns()[0].subflows {
		if sf.InFlight() != 0 {
			t.Fatalf("subflow %d: in-flight accounting leaked: %d", sf.ID, sf.InFlight())
		}
		for _, r := range sf.Records() {
			if !r.Settled() {
				t.Fatalf("subflow %d: record tx %d (rtx=%v) never settled", sf.ID, r.TxSeq, r.IsRtx)
			}
		}
	}
}

func TestMPTCPListenerRefusesUnknownJoin(t *testing.T) {
	// An MP_JOIN SYN names a connection by its token; one the listener
	// does not know makes nothing, as Linux refuses it.
	clock := sim.NewClock()
	tp := netem.NewTwoPath(clock, sim.NewRand(1), symSpecs(10, 20*time.Millisecond))
	lis := ListenMPTCP(tp.Net, DefaultConfig(), tp.ServerAddrs[:])
	accepted := 0
	lis.OnConnection(func(*Conn) { accepted++ })
	join := &tcpsim.Segment{SYN: true, Join: true, MP: true, Token: 0x77, SubflowID: 1}
	tp.Net.Send(netem.Datagram{From: tp.ClientAddrs[1], To: tp.ServerAddrs[1], Size: join.WireSize(), Payload: join})
	clock.RunUntil(sim.Time(time.Second))
	if len(lis.Conns()) != 0 || accepted != 0 {
		t.Fatalf("join SYN for an unknown token made %d connection(s)", len(lis.Conns()))
	}
}

// eventLog is a Tracer that keeps every event.
type eventLog []trace.Event

func (l *eventLog) Trace(ev trace.Event) { *l = append(*l, ev) }

func TestMPTCPPathOpenedNamesAddresses(t *testing.T) {
	cfg := DefaultConfig()
	var rec eventLog
	cfg.Tracer = &rec
	h := newMPHarness(t, cfg, symSpecs(10, 20*time.Millisecond))
	h.run(t, 2*time.Second)
	var got []string
	for _, ev := range rec {
		if ev.Type == trace.PathOpened {
			got = append(got, ev.Detail)
		}
	}
	// Both ends trace into rec: each opens subflow 0, then subflow 1.
	var want []string
	for _, sf := range h.client.subflows {
		want = append(want, string(sf.Local)+"->"+string(sf.Remote))
	}
	for _, sf := range h.lis.Conns()[0].subflows {
		want = append(want, string(sf.Local)+"->"+string(sf.Remote))
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) || len(got) != 4 {
		t.Fatalf("path_opened details %q, want %q", got, want)
	}
}

func TestMPTCPJoinAcceptedByData(t *testing.T) {
	// The join's third ACK is lost, so the server's subflow 1 stays in
	// SYN-received while the client's is established. The request is
	// written only then, and goes on subflow 1, the faster path: its
	// first data segment completes the server's passive open, and its
	// bytes count.
	specs := [2]netem.PathSpec{
		{CapacityMbps: 10, RTT: 40 * time.Millisecond, QueueDelay: 100 * time.Millisecond},
		{CapacityMbps: 10, RTT: 10 * time.Millisecond, QueueDelay: 100 * time.Millisecond},
	}
	h := newMPHarness(t, DefaultConfig(), specs)
	dropped := 0
	h.tp.Net.Register(h.tp.ServerAddrs[1], netem.HandlerFunc(func(dg netem.Datagram) {
		seg := dg.Payload.(*tcpsim.Segment)
		if dropped == 0 && !seg.SYN && seg.Ctl == tcpsim.CtlNone && seg.Len == 0 {
			dropped++
			return
		}
		h.lis.HandleDatagram(dg)
	}))
	tcpsim.ServeGet(h.lis, 256<<10)
	h.run(t, time.Second)
	if dropped != 1 || !h.client.SubflowByID(1).Established() {
		t.Fatalf("join's third ACK not dropped (%d) or client join not established", dropped)
	}
	srv := h.lis.Conns()[0]
	sf1 := srv.SubflowByID(1)
	if sf1.Established() {
		t.Fatal("server subflow 1 established without its third ACK")
	}
	res := get(h.client, h.clock, 256<<10)
	h.run(t, 30*time.Second)
	if !sf1.Established() || sf1.Stats.EstablishedAt < time.Second {
		t.Fatalf("server subflow 1 established at %v, want on the request after 1s", sf1.Stats.EstablishedAt)
	}
	if got := sf1.BytesReceived(); got < tcpsim.GetRequestSize {
		t.Fatalf("server subflow 1 received %d bytes, want the %d-byte request", got, tcpsim.GetRequestSize)
	}
	if res.Size == 0 {
		t.Fatal("download did not finish")
	}
}
