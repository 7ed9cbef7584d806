package core_test

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"mpquic/internal/apps"
	"mpquic/internal/cc"
	"mpquic/internal/core"
	"mpquic/internal/netem"
	"mpquic/internal/sim"
	"mpquic/internal/wire"
)

// harness bundles one client/server pair over the Fig. 2 topology.
type harness struct {
	clock    *sim.Clock
	tp       *netem.TwoPathNet
	listener *core.Listener
	accepted []*core.Conn
	client   *core.Conn
}

func symSpecs(mbps float64, rtt time.Duration) [2]netem.PathSpec {
	return [2]netem.PathSpec{
		{CapacityMbps: mbps, RTT: rtt, QueueDelay: 100 * time.Millisecond},
		{CapacityMbps: mbps, RTT: rtt, QueueDelay: 100 * time.Millisecond},
	}
}

func newHarness(t *testing.T, clientCfg, serverCfg core.Config, specs [2]netem.PathSpec) *harness {
	t.Helper()
	clock := sim.NewClock()
	clock.Limit = 50_000_000
	tp := netem.NewTwoPath(clock, sim.NewRand(42), specs)
	h := &harness{clock: clock, tp: tp}
	h.listener = core.Listen(tp.Net, serverCfg, tp.ServerAddrs[:])
	// Remember accepted connections: one that has closed (a long run
	// idles the server out) is no longer in Listener.Conns.
	h.listener.OnConnection(func(c *core.Conn) { h.accepted = append(h.accepted, c) })
	locals := tp.ClientAddrs[:]
	remotes := tp.ServerAddrs[:]
	if !clientCfg.Multipath {
		locals, remotes = locals[:1], remotes[:1]
	}
	h.client = core.Dial(tp.Net, clientCfg, 0xabcd, locals, remotes)
	return h
}

func (h *harness) run(t *testing.T, until time.Duration) {
	t.Helper()
	if err := h.clock.RunUntil(sim.Time(until)); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func (h *harness) serverConn(t *testing.T) *core.Conn {
	t.Helper()
	if len(h.accepted) != 1 {
		t.Fatalf("server accepted %d conns", len(h.accepted))
	}
	return h.accepted[0]
}

func TestHandshakeCompletesInOneRTT(t *testing.T) {
	cfg := core.DefaultSinglePathConfig()
	h := newHarness(t, cfg, cfg, symSpecs(10, 40*time.Millisecond))
	var done time.Duration
	h.client.OnHandshakeComplete(func() { done = h.clock.Now().Duration() })
	h.run(t, time.Second)
	if !h.client.HandshakeComplete() {
		t.Fatal("handshake did not complete")
	}
	// 1 RTT (40 ms) plus serialization of the padded CHLO/SHLO
	// (~1.1 ms each at 10 Mbps).
	if done < 40*time.Millisecond || done > 50*time.Millisecond {
		t.Fatalf("handshake took %v, want ~1 RTT (40ms)", done)
	}
	if !h.serverConn(t).HandshakeComplete() {
		t.Fatal("server handshake incomplete")
	}
}

func TestSinglePathRealDataEcho(t *testing.T) {
	cfg := core.DefaultSinglePathConfig()
	h := newHarness(t, cfg, cfg, symSpecs(10, 20*time.Millisecond))
	apps.NewGetServer(h.listener)

	// A real-bytes request must arrive intact (tests real payload
	// transport end to end).
	var got []byte
	srvGot := make(chan struct{}, 1)
	_ = srvGot
	h.client.OnHandshakeComplete(func() {
		s := h.client.OpenStream()
		s.OnData(func() {
			if n := s.Readable(); n > 0 {
				_, data := s.Read(n)
				got = append(got, data...)
			}
		})
		s.Write([]byte("GET 5000"))
		s.Close()
	})
	h.run(t, 5*time.Second)
	// GetServer answers with 5000 synthetic bytes; synthetic reads
	// return nil data but count.
	cs := h.client.StreamByID(3)
	if cs == nil || !cs.Finished() {
		t.Fatal("response not finished")
	}
	if cs.BytesReceived() != 5000 {
		t.Fatalf("received %d bytes", cs.BytesReceived())
	}
}

func TestSinglePathDownloadGoodput(t *testing.T) {
	cfg := core.DefaultSinglePathConfig()
	h := newHarness(t, cfg, cfg, symSpecs(20, 30*time.Millisecond))
	apps.NewGetServer(h.listener)
	var res *apps.GetResult
	apps.NewGetClient(h.client, 2<<20, func() time.Duration { return h.clock.Now().Duration() },
		func(r apps.GetResult) { res = &r })
	h.run(t, 60*time.Second)
	if res == nil {
		t.Fatal("download did not finish")
	}
	// 2 MiB at 20 Mbps is ~0.84 s minimum; handshake + slow start
	// overhead allows up to ~3 s.
	if got := res.Elapsed(); got < 800*time.Millisecond || got > 3*time.Second {
		t.Fatalf("download took %v", got)
	}
	gp := res.GoodputBps() / 1e6
	if gp < 5 || gp > 20 {
		t.Fatalf("goodput %.1f Mbps out of range", gp)
	}
	// The paper's baseline shape: one path although both endpoints
	// have two interfaces, and CUBIC on it.
	paths := h.client.Paths()
	if len(paths) != 1 || len(h.serverConn(t).Paths()) != 1 {
		t.Fatalf("single-path config opened %d client / %d server paths", len(paths), len(h.serverConn(t).Paths()))
	}
	if _, ok := paths[0].CC().(*cc.Cubic); !ok {
		t.Fatalf("baseline must run CUBIC, got %T", paths[0].CC())
	}
}

func TestMultipathAggregatesBandwidth(t *testing.T) {
	size := uint64(4 << 20)
	elapsed := func(cfgC, cfgS core.Config) time.Duration {
		h := newHarness(t, cfgC, cfgS, symSpecs(10, 30*time.Millisecond))
		apps.NewGetServer(h.listener)
		var res *apps.GetResult
		apps.NewGetClient(h.client, size, func() time.Duration { return h.clock.Now().Duration() },
			func(r apps.GetResult) { res = &r })
		h.run(t, 120*time.Second)
		if res == nil {
			t.Fatal("download did not finish")
		}
		return res.Elapsed()
	}
	sp := core.DefaultSinglePathConfig()
	mp := core.DefaultConfig()
	tSingle := elapsed(sp, sp)
	tMulti := elapsed(mp, mp)
	if tMulti >= tSingle {
		t.Fatalf("multipath (%v) not faster than single path (%v)", tMulti, tSingle)
	}
	// Two identical 10 Mbps paths should approach 2x: require ≥1.5x.
	if float64(tSingle)/float64(tMulti) < 1.5 {
		t.Fatalf("aggregation ratio %.2f < 1.5 (single %v, multi %v)",
			float64(tSingle)/float64(tMulti), tSingle, tMulti)
	}
}

func TestMultipathUsesBothPaths(t *testing.T) {
	mp := core.DefaultConfig()
	h := newHarness(t, mp, mp, symSpecs(10, 30*time.Millisecond))
	apps.NewGetServer(h.listener)
	var res *apps.GetResult
	apps.NewGetClient(h.client, 4<<20, func() time.Duration { return h.clock.Now().Duration() },
		func(r apps.GetResult) { res = &r })
	h.run(t, 120*time.Second)
	if res == nil {
		t.Fatal("download did not finish")
	}
	srv := h.serverConn(t)
	paths := srv.Paths()
	if len(paths) != 2 {
		t.Fatalf("server sees %d paths", len(paths))
	}
	for _, p := range paths {
		if p.SentBytes < uint64(1<<20) {
			t.Fatalf("path %d sent only %d bytes — no aggregation", p.ID, p.SentBytes)
		}
	}
	// Client-created second path must have an odd ID.
	if paths[1].ID%2 != 1 {
		t.Fatalf("client-created path has even ID %d", paths[1].ID)
	}
}

func TestSchedulerDuplicatesOnFreshPath(t *testing.T) {
	mp := core.DefaultConfig()
	h := newHarness(t, mp, mp, symSpecs(10, 30*time.Millisecond))
	apps.NewGetServer(h.listener)
	apps.NewGetClient(h.client, 1<<20, func() time.Duration { return h.clock.Now().Duration() }, nil)
	h.run(t, 60*time.Second)
	srv := h.serverConn(t)
	if srv.Stats.DuplicatedPackets == 0 {
		t.Fatal("server never duplicated onto the fresh path")
	}
	// Ablation: with duplication disabled, no duplicates.
	mp2 := core.DefaultConfig()
	mp2.Scheduler = core.SchedLowestRTTNoDup
	h2 := newHarness(t, mp2, mp2, symSpecs(10, 30*time.Millisecond))
	apps.NewGetServer(h2.listener)
	apps.NewGetClient(h2.client, 1<<20, func() time.Duration { return h2.clock.Now().Duration() }, nil)
	h2.run(t, 60*time.Second)
	if h2.serverConn(t).Stats.DuplicatedPackets != 0 {
		t.Fatal("nodup scheduler duplicated")
	}
}

func TestTransferSurvivesRandomLoss(t *testing.T) {
	specs := symSpecs(10, 30*time.Millisecond)
	specs[0].LossRate = 0.02
	specs[1].LossRate = 0.02
	for name, cfg := range map[string]core.Config{
		"singlepath": core.DefaultSinglePathConfig(),
		"multipath":  core.DefaultConfig(),
	} {
		h := newHarness(t, cfg, cfg, specs)
		apps.NewGetServer(h.listener)
		var res *apps.GetResult
		apps.NewGetClient(h.client, 2<<20, func() time.Duration { return h.clock.Now().Duration() },
			func(r apps.GetResult) { res = &r })
		h.run(t, 300*time.Second)
		if res == nil {
			t.Fatalf("%s: download did not finish under 2%% loss", name)
		}
	}
}

func TestWireSerializationWithCryptoMatchesStructMode(t *testing.T) {
	run := func(wireMode, cryptoMode bool) time.Duration {
		cfg := core.DefaultConfig()
		cfg.WireSerialization = wireMode
		cfg.EnableCrypto = cryptoMode
		h := newHarness(t, cfg, cfg, symSpecs(10, 30*time.Millisecond))
		apps.NewGetServer(h.listener)
		var res *apps.GetResult
		apps.NewGetClient(h.client, 1<<20, func() time.Duration { return h.clock.Now().Duration() },
			func(r apps.GetResult) { res = &r })
		h.run(t, 60*time.Second)
		if res == nil {
			t.Fatal("download did not finish")
		}
		return res.Elapsed()
	}
	structMode := run(false, false)
	wireClear := run(true, false)
	wireSealed := run(true, true)
	if structMode != wireClear || structMode != wireSealed {
		t.Fatalf("modes disagree: struct=%v wire=%v wire+aead=%v", structMode, wireClear, wireSealed)
	}
}

func TestHandoverPotentiallyFailedAndPathsFrame(t *testing.T) {
	mp := core.DefaultConfig()
	specs := [2]netem.PathSpec{
		{CapacityMbps: 10, RTT: 15 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
		{CapacityMbps: 10, RTT: 25 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
	}
	h := newHarness(t, mp, mp, specs)
	apps.NewEchoServer(h.listener)
	client := apps.NewReqRespClient(h.client, h.clock, 10*time.Second)

	// Kill path 0 at t=3s (§4.3).
	h.clock.At(sim.Time(3*time.Second), func() { h.tp.KillPath(0) })
	h.run(t, 12*time.Second)

	samples := client.Samples()
	if len(samples) < 15 {
		t.Fatalf("only %d samples — traffic did not survive handover", len(samples))
	}
	// The client must have marked path 0 potentially failed.
	p0 := h.client.PathByID(0)
	if p0 == nil || !p0.PotentiallyFailed() {
		t.Fatal("path 0 not marked potentially failed")
	}
	// Exchanges after the failure recover and continue on path 1.
	var after []apps.ReqRespSample
	for _, s := range samples {
		if s.SentAt > 4*time.Second {
			after = append(after, s)
		}
	}
	if len(after) < 10 {
		t.Fatalf("only %d post-failure samples", len(after))
	}
	for _, s := range after[2:] {
		if s.Delay > 200*time.Millisecond {
			t.Fatalf("post-handover delay %v too high at t=%v", s.Delay, s.SentAt)
		}
	}
}

func TestIdleTimeoutCloses(t *testing.T) {
	cfg := core.DefaultSinglePathConfig()
	cfg.IdleTimeout = 2 * time.Second
	h := newHarness(t, cfg, cfg, symSpecs(10, 20*time.Millisecond))
	var closedErr error
	closed := false
	h.client.OnClosed(func(err error) { closed = true; closedErr = err })
	h.run(t, 10*time.Second)
	if !closed || closedErr == nil {
		t.Fatalf("idle timeout did not close: closed=%v err=%v", closed, closedErr)
	}
}

func TestExplicitCloseNotifiesPeer(t *testing.T) {
	cfg := core.DefaultSinglePathConfig()
	h := newHarness(t, cfg, cfg, symSpecs(10, 20*time.Millisecond))
	h.run(t, time.Second) // complete handshake
	srv := h.serverConn(t)
	srvClosed := false
	srv.OnClosed(func(error) { srvClosed = true })
	h.client.Close()
	h.run(t, 2*time.Second)
	if !h.client.Closed() {
		t.Fatal("client not closed")
	}
	if !srvClosed {
		t.Fatal("server not notified of close")
	}
}

func TestAddAddressOpensSecondPath(t *testing.T) {
	// Client starts knowing only the first server address; the server
	// advertises the second via ADD_ADDRESS (§3 dual-stack use case).
	clock := sim.NewClock()
	tp := netem.NewTwoPath(clock, sim.NewRand(7), symSpecs(10, 30*time.Millisecond))
	srvCfg := core.DefaultConfig()
	srvCfg.AdvertiseAddresses = true
	l := core.Listen(tp.Net, srvCfg, tp.ServerAddrs[:])
	apps.NewGetServer(l)
	cliCfg := core.DefaultConfig()
	client := core.Dial(tp.Net, cliCfg, 0x11, tp.ClientAddrs[:], tp.ServerAddrs[:1])
	var res *apps.GetResult
	apps.NewGetClient(client, 2<<20, func() time.Duration { return clock.Now().Duration() },
		func(r apps.GetResult) { res = &r })
	if err := clock.RunUntil(sim.Time(60 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("download did not finish")
	}
	if len(client.Paths()) != 2 {
		t.Fatalf("client has %d paths, want 2 (via ADD_ADDRESS)", len(client.Paths()))
	}
	p1 := client.Paths()[1]
	if p1.RecvBytes == 0 {
		t.Fatal("advertised path carried no data")
	}
}

func TestSinglePathHasNoPathIDOverhead(t *testing.T) {
	// The multipath header costs exactly one extra byte; single-path
	// mode must not pay it. Compare handshake packet accounting.
	spCfg := core.DefaultSinglePathConfig()
	h := newHarness(t, spCfg, spCfg, symSpecs(10, 20*time.Millisecond))
	h.run(t, time.Second)
	if got := len(h.client.Paths()); got != 1 {
		t.Fatalf("single path conn has %d paths", got)
	}
}

func TestRoundRobinSchedulerCompletes(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Scheduler = core.SchedRoundRobin
	h := newHarness(t, cfg, cfg, symSpecs(10, 30*time.Millisecond))
	apps.NewGetServer(h.listener)
	var res *apps.GetResult
	apps.NewGetClient(h.client, 2<<20, func() time.Duration { return h.clock.Now().Duration() },
		func(r apps.GetResult) { res = &r })
	h.run(t, 60*time.Second)
	if res == nil {
		t.Fatal("round-robin download did not finish")
	}
}

// TestForgedPacketDeliversNothing: a protected packet is opened in
// place, inside the datagram buffer. When the tag does not verify the
// buffer's contents are unspecified, so nothing of it may reach a frame
// handler: the datagram is dropped whole and counted, no stream byte is
// delivered by it, and retransmission completes the transfer with the
// sender's bytes only.
func TestForgedPacketDeliversNothing(t *testing.T) {
	cfg := core.DefaultSinglePathConfig()
	cfg.WireSerialization = true
	cfg.EnableCrypto = true
	h := newHarness(t, cfg, cfg, symSpecs(10, 20*time.Millisecond))
	apps.NewGetServer(h.listener)

	// Tamper with every 7th protected datagram on its way to the
	// client, one bit each, walking through the packet.
	stream := func() *core.Stream { return h.client.StreamByID(core.FirstClientStream) }
	seen, forged := 0, uint64(0)
	h.tp.Net.Register(h.tp.ClientAddrs[0], netem.HandlerFunc(func(dg netem.Datagram) {
		hdr, hdrLen, err := wire.ParseHeader(dg.Raw, wire.InvalidPacketNumber)
		if err != nil || hdr.Handshake {
			h.client.HandleDatagram(dg)
			return
		}
		seen++
		if seen%7 != 0 {
			h.client.HandleDatagram(dg)
			return
		}
		bit := (seen * 131) % ((len(dg.Raw) - hdrLen) * 8)
		dg.Raw[hdrLen+bit/8] ^= 1 << (bit % 8)
		var before uint64
		if s := stream(); s != nil {
			before = s.BytesReceived()
		}
		drops := h.client.CorruptDrops()
		h.client.HandleDatagram(dg)
		forged++
		if got := h.client.CorruptDrops(); got != drops+1 {
			t.Errorf("forged packet %d: CorruptDrops %d -> %d, want +1", seen, drops, got)
		}
		if s := stream(); s != nil && s.BytesReceived() != before {
			t.Errorf("forged packet %d delivered %d stream bytes", seen, s.BytesReceived()-before)
		}
	}))

	const size = 256 << 10
	var got []byte
	h.client.OnHandshakeComplete(func() {
		s := h.client.OpenStream()
		s.OnData(func() {
			if n := s.Readable(); n > 0 {
				_, data := s.Read(n)
				got = append(got, data...)
			}
		})
		s.Write([]byte(apps.FormatGet(size)))
		s.Close()
	})
	h.run(t, 30*time.Second)
	if forged == 0 {
		t.Fatal("no packet was forged")
	}
	if s := stream(); s == nil || !s.Finished() {
		t.Fatal("transfer did not complete despite retransmission")
	}
	// Synthetic payload serializes as 0xAA filler.
	if len(got) != size || bytes.Count(got, []byte{0xAA}) != size {
		t.Fatalf("read %d bytes, %d of them the sender's", len(got), bytes.Count(got, []byte{0xAA}))
	}
	if h.client.CorruptDrops() != forged {
		t.Fatalf("CorruptDrops = %d, forged %d", h.client.CorruptDrops(), forged)
	}
}

// TestListenerForgetsClosedConnections: a listener must not keep the
// connections it has served — a long-running server would grow without
// bound — and a packet arriving for a connection that is gone must not
// bring it back. 200 sequential dial/GET/close cycles against one
// listener leave it empty, with a live heap no larger than after the
// tenth.
func TestListenerForgetsClosedConnections(t *testing.T) {
	cfg := core.DefaultConfig()
	clock := sim.NewClock()
	clock.Limit = 50_000_000
	tp := netem.NewTwoPath(clock, sim.NewRand(42), symSpecs(50, 10*time.Millisecond))
	lis := core.Listen(tp.Net, cfg, tp.ServerAddrs[:])
	apps.NewGetServer(lis)
	accepted := 0
	lis.OnConnection(func(*core.Conn) { accepted++ })

	heapAfterGC := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var heapAt10 uint64
	for i := 1; i <= 200; i++ {
		client := core.Dial(tp.Net, cfg, core.NewConnID(uint64(i)), tp.ClientAddrs[:], tp.ServerAddrs[:])
		done := false
		apps.NewGetClient(client, 64<<10, func() time.Duration { return clock.Now().Duration() },
			func(apps.GetResult) { done = true })
		until := clock.Now().Add(5 * time.Second)
		if err := clock.RunUntil(until); err != nil {
			t.Fatal(err)
		}
		if !done {
			t.Fatalf("cycle %d: GET did not finish", i)
		}
		if n := len(lis.Conns()); n != 1 {
			t.Fatalf("cycle %d: %d open server connections during the transfer, want 1", i, n)
		}
		client.Close()
		if err := clock.RunUntil(clock.Now().Add(time.Second)); err != nil {
			t.Fatal(err)
		}
		if n := len(lis.Conns()); n != 0 {
			t.Fatalf("cycle %d: listener still holds %d connections after close", i, n)
		}
		if i == 10 {
			heapAt10 = heapAfterGC()
		}
	}
	if accepted != 200 {
		t.Fatalf("accepted %d connections, want 200 (a stray packet resurrected one?)", accepted)
	}
	if heap := heapAfterGC(); heap > 2*heapAt10 {
		t.Fatalf("live heap grew from %d B after 10 cycles to %d B after 200", heapAt10, heap)
	}
}

// TestStrayPacketDoesNotCreateConnection: only a handshake packet may
// open a connection.
func TestStrayPacketDoesNotCreateConnection(t *testing.T) {
	cfg := core.DefaultSinglePathConfig()
	h := newHarness(t, cfg, cfg, symSpecs(10, 20*time.Millisecond))
	stray := &wire.Packet{
		Header: wire.Header{ConnID: 0x5eed, PacketNumber: 1},
		Frames: []wire.Frame{&wire.PingFrame{}},
	}
	h.listener.HandleDatagram(netem.Datagram{From: h.tp.ClientAddrs[0], To: h.tp.ServerAddrs[0], Size: len(stray.EncodeTo(nil, nil)), Payload: stray})
	h.listener.HandleDatagram(core.RawDatagram(h.tp.ClientAddrs[0], h.tp.ServerAddrs[0], stray.EncodeTo(nil, nil)))
	if len(h.accepted) != 0 || len(h.listener.Conns()) != 0 {
		t.Fatalf("stray packets created %d connections", len(h.accepted))
	}
	if got := h.listener.StrayDrops(); got != 2 {
		t.Fatalf("StrayDrops = %d, want 2", got)
	}
}
