package main

import (
	"io"
	"runtime"
	"sort"
	"time"

	"mpquic/internal/cc"
	"mpquic/internal/core"
	"mpquic/internal/crypto"
	"mpquic/internal/expdesign"
	"mpquic/internal/netem"
	"mpquic/internal/recovery"
	"mpquic/internal/rtt"
	"mpquic/internal/sim"
	"mpquic/internal/stream"
	"mpquic/internal/trace"
	"mpquic/internal/wire"
)

// The isolated drivers: each replays the packet mix captured from the
// traced units through one layer's public functions, in bulk and
// outside the timed phase, so a layer's cost is known on the packets
// this workload actually produces. Only sim and netem, which no packet
// parameterises, run a fixed synthetic load.

// mixPkt is one captured datagram in decoded form.
type mixPkt struct {
	capPkt
	p *wire.Packet
}

type pnKey struct {
	xfer       int32
	fromServer bool
	path       wire.PathID
}

// sessionSealers derives the two directions' AEADs the way both
// endpoints do from a handshake seed (client share from the seed,
// server share from seed+1).
func sessionSealers(seed uint64, multipath bool) (c2s, s2c *crypto.Sealer, err error) {
	ch := crypto.NewClientHandshake(seed)
	sh := crypto.NewServerHandshake(seed + 1)
	shlo, err := sh.OnCHLO(ch.CHLO())
	if err != nil {
		return nil, nil, err
	}
	if err := ch.OnSHLO(shlo); err != nil {
		return nil, nil, err
	}
	kc, ks := crypto.SessionKeys(ch.Secret())
	if c2s, err = crypto.NewSealer(kc, multipath); err != nil {
		return nil, nil, err
	}
	if s2c, err = crypto.NewSealer(ks, multipath); err != nil {
		return nil, nil, err
	}
	return c2s, s2c, nil
}

// decodeMix turns the capture into packets: struct-mode captures are
// packets already, wire-mode ones are opened with the transfer's own
// keys and decoded. Packets sent outside any traced transfer, or that
// do not decode, are left out.
func decodeMix(tr *tracer, capture []capPkt) []mixPkt {
	mix := make([]mixPkt, 0, len(capture))
	last := make(map[pnKey]wire.PacketNumber)
	type sealerPair struct{ c2s, s2c *crypto.Sealer }
	sealers := make(map[int32]sealerPair)
	for _, c := range capture {
		if c.xfer < 0 || int(c.xfer) >= len(tr.transfers) {
			continue
		}
		if c.pkt != nil {
			mix = append(mix, mixPkt{capPkt: c, p: c.pkt})
			continue
		}
		hdr, _, err := wire.ParseHeader(c.raw, wire.InvalidPacketNumber)
		if err != nil {
			continue
		}
		info := tr.transfers[c.xfer]
		var sealer wire.Sealer
		if info.crypto && !hdr.Handshake {
			sp, ok := sealers[c.xfer]
			if !ok {
				if sp.c2s, sp.s2c, err = sessionSealers(info.handshakeSeed, info.multipath); err != nil {
					continue
				}
				sealers[c.xfer] = sp
			}
			sealer = sp.c2s
			if c.fromServer {
				sealer = sp.s2c
			}
		}
		key := pnKey{c.xfer, c.fromServer, hdr.PathID}
		largest, seen := last[key]
		if !seen {
			largest = wire.InvalidPacketNumber
		}
		p, err := wire.Decode(c.raw, largest, sealer)
		if err != nil {
			continue
		}
		last[key] = p.Header.PacketNumber
		mix = append(mix, mixPkt{capPkt: c, p: p})
	}
	return mix
}

// stopwatchCost is what a timed interval reads when nothing happens in
// it: the stopwatch's own cost, subtracted by the drivers that have to
// time single calls.
func stopwatchCost() time.Duration {
	const n = 100_000
	var acc time.Duration
	for i := 0; i < n; i++ {
		t0 := wall.Elapsed()
		acc += wall.Elapsed() - t0
	}
	return acc / n
}

func runLayerDrivers(res *result, tr *tracer, capture []capPkt) {
	mix := decodeMix(tr, capture)
	// Finish any collection the traced phase left running: the drivers
	// time small loops and must not share the one P with a mark phase.
	runtime.GC()
	simDrivers(res)
	netemDriver(res)
	handshakeDriver(res)
	qlogDriver(res)
	if len(mix) == 0 {
		return
	}
	open, decode := codecDrivers(res, mix)
	onAck := senderDrivers(res, mix)
	ackBuildDriver(res, mix)
	onFrame := streamDrivers(res, mix)

	// Derived: what HandleDatagram costs beyond the layers replayed
	// above and the sends nested in it, weighting each replayed cost by
	// the share of datagrams that exercise it.
	c, s := &tr.client, &tr.server
	n := float64(c.count[spanIngress] + s.count[spanIngress])
	if n == 0 {
		return
	}
	var withAck, withStream, protected float64
	wireMode := false
	for _, m := range mix {
		if m.raw != nil {
			wireMode = true
			if !m.p.Header.Handshake {
				protected++
			}
		}
		hasAck, hasStream := false, false
		for _, f := range m.p.Frames {
			switch f.(type) {
			case *wire.AckFrame:
				hasAck = true
			case *wire.StreamFrame:
				hasStream = true
			}
		}
		if hasAck {
			withAck++
		}
		if hasStream {
			withStream++
		}
	}
	total := float64(len(mix))
	self := float64(c.total[spanIngress]+s.total[spanIngress]-c.nested-s.nested) / n
	self -= onAck*withAck/total + onFrame*withStream/total
	if wireMode {
		self -= decode + open*protected/total
	}
	res.set("core.ingress_self_ns_per_pkt", self)
}

// simDrivers times the event loop on the two shapes the stacks give it:
// staggered future deadlines (the netem serializer) and bursts all due
// now (trySend cascades).
func simDrivers(res *result) {
	const bursts, perBurst = 400, 512
	fn := func() {}
	for _, shape := range []struct {
		name    string
		stagger bool
	}{{"sim.ns_per_event", true}, {"sim.ns_per_event_now", false}} {
		c := sim.NewClock()
		t0 := wall.Elapsed()
		for i := 0; i < bursts; i++ {
			for j := 0; j < perBurst; j++ {
				d := time.Duration(0)
				if shape.stagger {
					d = time.Duration(j%64) * time.Microsecond
				}
				c.After(d, fn)
			}
			if err := c.Run(); err != nil {
				return
			}
		}
		res.set(shape.name, float64(wall.Elapsed()-t0)/(bursts*perBurst))
	}
}

// netemDriver pushes full-size datagrams through one emulated link:
// the serialize + propagate event chain per packet.
func netemDriver(res *result) {
	const rounds, perRound = 400, 256
	clock := sim.NewClock()
	delivered := 0
	link := netem.NewLink(clock, sim.NewRand(1), "bench",
		netem.LinkConfig{RateMbps: 1000, Delay: time.Millisecond, QueueDelay: time.Second},
		func(netem.Datagram) { delivered++ })
	raw := make([]byte, wire.MaxPacketSize)
	t0 := wall.Elapsed()
	for i := 0; i < rounds; i++ {
		for j := 0; j < perRound; j++ {
			link.Send(netem.Datagram{From: "a", To: "b", Size: wire.MaxPacketSize + wire.UDPIPv4Overhead, Raw: raw})
			if err := clock.RunUntil(clock.Now().Add(12 * time.Microsecond)); err != nil {
				return
			}
		}
		if err := clock.Run(); err != nil {
			return
		}
	}
	if delivered == rounds*perRound {
		res.set("netem.ns_per_transit", float64(wall.Elapsed()-t0)/(rounds*perRound))
	}
}

// handshakeDriver times the key exchange and key derivation both
// endpoints perform per connection.
func handshakeDriver(res *result) {
	const n = 300
	t0 := wall.Elapsed()
	for i := 0; i < n; i++ {
		if _, _, err := sessionSealers(uint64(i), true); err != nil {
			return
		}
	}
	res.set("crypto.handshake_us", (wall.Elapsed()-t0).Seconds()*1e6/n)
}

// qlogDriver runs one fixed wire-mode MPQUIC transfer with and without
// a qlog writer on both endpoints (rendering to io.Discard): the price
// of the repo's own tracing, as a ratio of host time.
func qlogDriver(res *result) {
	sc := expdesign.GenerateScenarios(expdesign.LowBDPNoLoss, 1)[0]
	cfg := core.DefaultConfig()
	cfg.WireSerialization = true
	cfg.EnableCrypto = true
	run := func(t trace.Tracer) float64 {
		var ns []float64
		for i := 0; i < 3; i++ {
			c := cfg
			c.Tracer = t
			t0 := wall.Elapsed()
			if r := expdesign.RunMPQUICVariant(sc, c, 2<<20, 0, 1); !r.Completed {
				return 0
			}
			ns = append(ns, float64(wall.Elapsed()-t0))
		}
		return median(ns)
	}
	plain, logged := run(nil), run(trace.NewQlog(io.Discard, "bench"))
	if plain > 0 && logged > 0 {
		res.set("trace.qlog_overhead_ratio", logged/plain)
	}
}

// codecDrivers replays the mix through encode, seal, open and decode,
// batch by batch, and returns the open and decode costs per packet.
func codecDrivers(res *result, mix []mixPkt) (open, decode float64) {
	const batch = 4096
	_, sealer, err := sessionSealers(liveHandshakeSeed, true)
	if err != nil {
		return 0, 0
	}
	arena := make([]byte, batch*wire.MaxPacketSize)
	enc := make([][]byte, batch)
	sealed := make([][]byte, batch)
	var (
		encNs, sealNs, openNs, decNs                 time.Duration
		encAllocs, sealAllocs, openAllocs, decAllocs uint64
		pkts, protected                              int
	)
	for off := 0; off < len(mix); off += batch {
		end := off + batch
		if end > len(mix) {
			end = len(mix)
		}
		chunk := mix[off:end]

		m0 := mallocs()
		t0 := wall.Elapsed()
		for i, m := range chunk {
			slot := arena[i*wire.MaxPacketSize : i*wire.MaxPacketSize : (i+1)*wire.MaxPacketSize]
			enc[i] = m.p.EncodeTo(slot, nil)
		}
		encNs += wall.Elapsed() - t0
		m1 := mallocs()
		encAllocs += m1 - m0
		pkts += len(chunk)

		// hdrLen splits each encoded packet where EncodeTo split it.
		t0 = wall.Elapsed()
		for i, m := range chunk {
			sealed[i] = nil
			if m.p.Header.Handshake {
				continue
			}
			h := m.p.Header.EncodedSize(m.p.LargestAcked)
			sealed[i] = sealer.Seal(m.p.Header.PathID, m.p.Header.PacketNumber, enc[i][:h], enc[i][h:len(enc[i])-wire.AEADOverhead])
		}
		sealNs += wall.Elapsed() - t0
		m2 := mallocs()
		sealAllocs += m2 - m1

		t0 = wall.Elapsed()
		for i, m := range chunk {
			if sealed[i] == nil {
				continue
			}
			h := m.p.Header.EncodedSize(m.p.LargestAcked)
			if _, err := sealer.Open(m.p.Header.PathID, m.p.Header.PacketNumber, enc[i][:h], sealed[i]); err != nil {
				return 0, 0
			}
			protected++
		}
		openNs += wall.Elapsed() - t0
		m3 := mallocs()
		openAllocs += m3 - m2

		t0 = wall.Elapsed()
		for i, m := range chunk {
			largest := wire.InvalidPacketNumber
			if pn := m.p.Header.PacketNumber; pn > 0 {
				largest = pn - 1
			}
			if _, err := wire.DecodeBorrowed(enc[i], largest, nil); err != nil {
				return 0, 0
			}
		}
		decNs += wall.Elapsed() - t0
		decAllocs += mallocs() - m3
	}
	n := float64(pkts)
	res.set("wire.encode_ns_per_pkt", float64(encNs)/n)
	res.set("wire.encode_allocs_per_pkt", float64(encAllocs)/n)
	decode = float64(decNs) / n
	res.set("wire.decode_ns_per_pkt", decode)
	res.set("wire.decode_allocs_per_pkt", float64(decAllocs)/n)
	if protected > 0 {
		p := float64(protected)
		open = float64(openNs) / p
		res.set("crypto.seal_ns_per_pkt", float64(sealNs)/p)
		res.set("crypto.seal_allocs_per_pkt", float64(sealAllocs)/p)
		res.set("crypto.open_ns_per_pkt", open)
		res.set("crypto.open_allocs_per_pkt", float64(openAllocs)/p)
	}
	return open, decode
}

// ccOp is one congestion-controller call the sender replay produced.
type ccOp struct {
	path       wire.PathID
	bytes      int
	srtt       time.Duration
	congestion bool
}

// senderDrivers replays the data sender's side of each transfer: every
// retransmittable packet the server sent enters its path's
// recovery.Space, every ACK frame the client sent is processed against
// it at the time it was sent. The controller calls and RTT samples this
// produces are then replayed in bulk through cc and rtt. It returns the
// cost of one OnAck.
func senderDrivers(res *result, mix []mixPkt) (onAck float64) {
	cost := stopwatchCost()
	type spaceKey struct {
		xfer int32
		path wire.PathID
	}
	spaces := make(map[spaceKey]*recovery.Space)
	space := func(x int32, p wire.PathID) *recovery.Space {
		k := spaceKey{x, p}
		s := spaces[k]
		if s == nil {
			s = recovery.NewSpace(rtt.New(rtt.DefaultQUIC()))
			spaces[k] = s
		}
		return s
	}
	var (
		sentNs, ackNs time.Duration
		sent, acks    int
		ops           []ccOp
		samples       []time.Duration
		multipath     bool
	)
	for _, m := range mix {
		if m.p.Header.Multipath {
			multipath = true
		}
		if m.fromServer {
			if m.p.Header.Handshake || !m.p.IsRetransmittable() {
				continue
			}
			sp := &recovery.SentPacket{PN: m.p.Header.PacketNumber, Frames: m.p.Frames, Size: m.size, SentTime: m.at, Retransmittable: true}
			s := space(m.xfer, m.p.Header.PathID)
			t0 := wall.Elapsed()
			s.OnPacketSent(sp)
			sentNs += wall.Elapsed() - t0 - cost
			sent++
			continue
		}
		for _, f := range m.p.Frames {
			ack, ok := f.(*wire.AckFrame)
			if !ok {
				continue
			}
			path := ack.PathID
			if !m.p.Header.Multipath {
				path = 0
			}
			s := space(m.xfer, path)
			t0 := wall.Elapsed()
			r := s.OnAck(ack, m.at)
			ackNs += wall.Elapsed() - t0 - cost
			acks++
			srtt := s.RTT().SmoothedRTT()
			for _, a := range r.NewlyAcked {
				ops = append(ops, ccOp{path: path, bytes: a.Size, srtt: srtt})
			}
			if r.CongestionEvent {
				ops = append(ops, ccOp{path: path, congestion: true})
			}
			if r.HasRTTSample {
				samples = append(samples, r.SampleRTT)
			}
		}
	}
	if sent > 0 {
		res.set("recovery.on_sent_ns_per_pkt", float64(sentNs)/float64(sent))
	}
	if acks > 0 {
		onAck = float64(ackNs) / float64(acks)
		res.set("recovery.on_ack_ns_per_ack", onAck)
	}

	// cc: the workload's own controller family, fed the replayed calls.
	if len(ops) > 0 {
		ctrl := make(map[wire.PathID]cc.Controller)
		var olia *cc.Olia
		if multipath {
			olia = cc.NewOlia(wire.MaxPacketSize)
		}
		var now time.Duration
		for _, op := range ops {
			if ctrl[op.path] == nil {
				if olia != nil {
					ctrl[op.path] = olia.AddPath()
				} else {
					ctrl[op.path] = cc.NewCubic(wire.MaxPacketSize, func() time.Duration { return now })
				}
			}
		}
		acked := 0
		t0 := wall.Elapsed()
		for _, op := range ops {
			c := ctrl[op.path]
			if op.congestion {
				c.OnCongestionEvent()
				continue
			}
			now += 100 * time.Microsecond
			c.OnPacketAcked(op.bytes, op.srtt)
			acked++
		}
		if acked > 0 {
			res.set("cc.on_ack_ns_per_pkt", float64(wall.Elapsed()-t0)/float64(acked))
		}
	}

	// rtt: the replayed samples, cycled to a bulk count.
	if len(samples) > 0 {
		const n = 500_000
		est := rtt.New(rtt.DefaultQUIC())
		t0 := wall.Elapsed()
		for i := 0; i < n; i++ {
			est.Update(samples[i%len(samples)], 0)
		}
		res.set("rtt.update_ns", float64(wall.Elapsed()-t0)/n)
	}
	return onAck
}

// ackBuildDriver replays the receiver's side: every data packet enters
// its path's AckManager, and wherever the client sent an ACK frame one
// is built. The cost is everything the manager did per ACK it built.
func ackBuildDriver(res *result, mix []mixPkt) {
	mgrs := make(map[pnKey]*recovery.AckManager)
	built := 0
	t0 := wall.Elapsed()
	for _, m := range mix {
		if m.fromServer {
			k := pnKey{m.xfer, true, m.p.Header.PathID}
			a := mgrs[k]
			if a == nil {
				a = recovery.NewAckManager(m.p.Header.PathID)
				mgrs[k] = a
			}
			a.OnPacketReceived(m.p.Header.PacketNumber, m.p.IsRetransmittable(), m.at)
			continue
		}
		for _, f := range m.p.Frames {
			if ack, ok := f.(*wire.AckFrame); ok {
				path := ack.PathID
				if !m.p.Header.Multipath {
					path = 0
				}
				if a := mgrs[pnKey{m.xfer, true, path}]; a != nil && a.BuildAck(m.at) != nil {
					built++
				}
			}
		}
	}
	if built > 0 {
		res.set("recovery.ack_build_ns_per_ack", float64(wall.Elapsed()-t0)/float64(built))
	}
}

// streamDrivers replays the first transfer's STREAM frames into a
// RecvStream twice — sorted by offset, and in the order they were sent
// (across paths, with retransmissions: the reordering the receiver has
// to absorb) — and drains a SendStream of the same length. It returns
// the in-order cost per frame.
func streamDrivers(res *result, mix []mixPkt) (onFrame float64) {
	var frames []*wire.StreamFrame
	first := int32(-1)
	for _, m := range mix {
		if !m.fromServer {
			continue
		}
		if first < 0 {
			first = m.xfer
		}
		if m.xfer != first {
			break
		}
		for _, f := range m.p.Frames {
			if sf, ok := f.(*wire.StreamFrame); ok && sf.Len() > 0 {
				frames = append(frames, sf)
			}
		}
	}
	if len(frames) == 0 {
		return 0
	}
	feed := func(fs []*wire.StreamFrame) float64 {
		r := stream.NewRecvStream(core.FirstClientStream)
		t0 := wall.Elapsed()
		for _, f := range fs {
			// A capture cut mid-transfer may hold a FIN short of data
			// that was never captured; without FINs every prefix is
			// a valid stream.
			g := *f
			g.Fin = false
			if _, err := r.OnFrame(&g); err != nil {
				return 0
			}
			r.Read(r.Readable())
		}
		return float64(wall.Elapsed()-t0) / float64(len(fs))
	}
	res.set("stream.on_frame_reordered_ns_per_pkt", feed(frames))
	sorted := append([]*wire.StreamFrame(nil), frames...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Offset < sorted[j].Offset })
	onFrame = feed(sorted)
	res.set("stream.on_frame_ns_per_pkt", onFrame)

	var total uint64
	for _, f := range frames {
		total += uint64(f.Len())
	}
	s := stream.NewSendStream(core.FirstClientStream)
	s.WriteSynthetic(total)
	n := 0
	t0 := wall.Elapsed()
	for {
		f, _ := s.NextFrame(wire.MaxPacketSize-64, total)
		if f == nil {
			break
		}
		n++
	}
	if n > 0 {
		res.set("stream.next_frame_ns_per_pkt", float64(wall.Elapsed()-t0)/float64(n))
	}
	return onFrame
}
