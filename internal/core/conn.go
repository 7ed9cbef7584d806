package core

import (
	"fmt"
	"time"

	"mpquic/internal/cc"
	"mpquic/internal/crypto"
	"mpquic/internal/netem"
	"mpquic/internal/recovery"
	"mpquic/internal/rtt"
	"mpquic/internal/sim"
	"mpquic/internal/slab"
	"mpquic/internal/stream"
	"mpquic/internal/trace"
	"mpquic/internal/wire"
)

// ConnStats aggregates connection-level counters for the experiments.
type ConnStats struct {
	HandshakeCompleted time.Duration // virtual time of completion
	PacketsSent        uint64
	PacketsReceived    uint64
	BytesSent          uint64
	BytesReceived      uint64
	DuplicatedPackets  uint64
	RTOs               uint64
	PacketsLost        uint64
	// Retransmissions counts stream frames whose data was requeued
	// after a loss declaration; each will be resent (possibly on a
	// different path — retransmissions are not path-pinned, §3).
	Retransmissions uint64
}

// Conn is one (Multipath) QUIC connection endpoint.
type Conn struct {
	cfg    Config
	role   Role
	clock  *sim.Clock
	net    DatagramSender
	lender packetLender // net again, when it lends struct-mode packets; else nil
	raw    rawLender    // net again, when it lends wire-mode bytes; else nil
	connID wire.ConnectionID

	// paths holds every path in creation order — the order the
	// scheduler's tie-breaks, PATHS frames and the golden artifacts
	// depend on. Paths are never removed and MaxPaths bounds the list,
	// so by-ID lookup (Conn.path) is a scan: a handful of compares,
	// cheaper than hashing, on a list every per-packet loop walks anyway.
	paths           []*Path
	nextLocalPathID wire.PathID
	rrNext          int // round-robin scheduler cursor

	localAddrs  []netem.Addr
	remoteAddrs []netem.Addr

	// Handshake state.
	hsClient          *crypto.ClientHandshake
	hsServer          *crypto.ServerHandshake
	handshakeComplete bool
	chloPending       bool // client must (re)send CHLO
	shloPending       bool // server must (re)send SHLO
	shloPayload       []byte
	sealSend          wire.Sealer
	sealRecv          wire.Sealer

	olia *cc.Olia // non-nil when cfg.CC == CCOlia
	lia  *cc.Lia  // non-nil when cfg.CC == CCLia

	connFC        *stream.FlowController
	connRecvTotal uint64
	// recvChunks counts the reassembly chunks the streams hold
	// (stream.ChunkSize each); handleStreamFrame bounds it.
	recvChunks int
	// streams holds every stream in creation order, local and
	// peer-opened interleaved as they appeared; Conn.stream finds one
	// by ID the way Conn.path does.
	streams      []*Stream
	nextStreamID wire.StreamID

	ctrl []wire.Frame // control frames the scheduler may route anywhere

	timer        *sim.Timer
	lastRecvTime time.Duration

	// deferring is set while HandleDatagram handles a datagram whose
	// carrier announced another in the same clock step
	// (netem.Datagram.More): trySend then only sets held, which says a
	// send and its timer reset are owed; the next trySend pays them —
	// HandleDatagram calls one on the first datagram without More.
	deferring bool
	held      bool

	// Per-packet scratch, so the steady-state packet path allocates
	// nothing (DESIGN.md, "Buffer and scratch ownership"). rxPkt and
	// rxScratch hold the wire-mode packet being handled, for the length
	// of one HandleDatagram. txFrames and txDupFrames are the frame
	// lists of the packet being built, txStreams the STREAM frames in
	// them and txAckSize the encoded size of the ACK frame leading
	// txFrames (0 without one), all from startPacket to the next:
	// sendPacket serializes the packet (wire mode) or copies it out
	// (struct mode) before it returns and recovery records its own copy
	// of every STREAM frame, so nothing keeps list or frames. candidates
	// and duplicates are the scheduler's path lists, valid until the
	// next schedule call.
	rxPkt       wire.Packet
	rxScratch   wire.FrameArena
	txFrames    []wire.Frame
	txDupFrames []wire.Frame
	txStreams   []wire.StreamFrame
	txAckSize   int
	candidates  []*Path
	duplicates  []*Path

	closed   bool
	closeErr error

	// corruptDrops counts ingress datagrams dropped because they did
	// not decode: unparsable header, failed AEAD/frame decode, or a
	// payload that is neither raw bytes nor a *wire.Packet. A real
	// stack drops these silently; the counter makes "silently" visible
	// (live mode surfaces it as Stats.CorruptDrops).
	corruptDrops uint64

	// Callbacks (all optional).
	onHandshakeDone func()
	onStreamOpen    func(*Stream)
	onClosed        func(error)
	onPathsFrame    func(*wire.PathsFrame)
	// acceptedBy is the Listener that created this (server-side)
	// connection and forgets it again once it has closed.
	acceptedBy *Listener
	// sent is the free list every path space draws its records from:
	// the connection's own when dialed, the listener's when accepted.
	sent *slab.List[recovery.SentPacket]

	Stats ConnStats
}

// newConn builds the common connection state.
func newConn(net DatagramSender, role Role, connID wire.ConnectionID, cfg Config, localAddrs, remoteAddrs []netem.Addr, sent *slab.List[recovery.SentPacket]) *Conn {
	if !cfg.Multipath && cfg.MaxPaths > 1 {
		cfg.MaxPaths = 1
	}
	if cfg.MaxPaths == 0 {
		cfg.MaxPaths = 2
	}
	c := &Conn{
		cfg:         cfg,
		role:        role,
		clock:       net.Clock(),
		net:         net,
		connID:      connID,
		localAddrs:  localAddrs,
		remoteAddrs: remoteAddrs,
		connFC:      stream.NewFlowController(cfg.ConnWindow),
		sent:        sent,
		// Room for any ordinary packet; a longer frame list just
		// allocates that once.
		txFrames:    make([]wire.Frame, 0, 16),
		txDupFrames: make([]wire.Frame, 0, 16),
	}
	c.lender, _ = net.(packetLender)
	c.raw, _ = net.(rawLender)
	c.lastRecvTime = c.now()
	if role == RoleClient {
		c.nextStreamID = FirstClientStream
		c.nextLocalPathID = 1 // client-created paths are odd (§3)
	} else {
		c.nextStreamID = FirstServerStream
		c.nextLocalPathID = 2 // server-created paths are even
	}
	if cfg.CC == CCOlia {
		c.olia = cc.NewOlia(mss())
	}
	if cfg.CC == CCLia {
		c.lia = cc.NewLia(mss())
	}
	c.timer = sim.NewTimer(c.clock, c.onTimer)
	return c
}

// mss is the congestion-control segment size: a full packet.
func mss() int { return wire.MaxPacketSize }

func (c *Conn) now() time.Duration { return c.clock.Now().Duration() }

// trace emits ev when tracing is enabled, stamping the current time.
// The per-packet sites test cfg.Tracer themselves before building ev, so
// an untraced connection copies no event and calls no cc.Cwnd for one.
func (c *Conn) trace(ev trace.Event) {
	if c.cfg.Tracer == nil {
		return
	}
	ev.Time = c.now()
	c.cfg.Tracer.Trace(ev)
}

// Closed reports whether the connection terminated.
func (c *Conn) Closed() bool { return c.closed }

// Paths returns the open paths in creation order.
func (c *Conn) Paths() []*Path { return append([]*Path(nil), c.paths...) }

// PathByID returns a path or nil.
func (c *Conn) PathByID(id wire.PathID) *Path { return c.path(id) }

// path returns the path with the given ID, or nil.
//
//mpq:noescape
func (c *Conn) path(id wire.PathID) *Path {
	for _, p := range c.paths {
		if p.ID == id {
			return p
		}
	}
	return nil
}

// SampleInto appends one PathSample per path (creation order) to rec,
// stamped with the current simulated time. Sampling only reads state —
// attaching a sampler never changes a run's schedule or results — and
// at a fixed cadence the series is byte-reproducible across same-seed
// runs.
func (c *Conn) SampleInto(rec *trace.SeriesRecorder) {
	now := c.now()
	for _, p := range c.paths {
		rec.Add(trace.PathSample{
			T:          now,
			Path:       uint8(p.ID),
			Cwnd:       p.cc.Cwnd(),
			SRTT:       p.est.SmoothedRTT(),
			InFlight:   p.space.BytesInFlight(),
			BytesSent:  p.SentBytes,
			BytesAcked: p.AckedBytes,
			SlowStart:  p.cc.InSlowStart(),
		})
	}
}

// OnHandshakeComplete registers the handshake-completion callback.
func (c *Conn) OnHandshakeComplete(fn func()) {
	c.onHandshakeDone = fn
	if c.handshakeComplete {
		fn()
	}
}

// OnStreamOpen registers the peer-opened-stream callback.
func (c *Conn) OnStreamOpen(fn func(*Stream)) { c.onStreamOpen = fn }

// OnClosed registers the close callback.
func (c *Conn) OnClosed(fn func(error)) { c.onClosed = fn }

// OnPathsFrame registers a callback for received PATHS frames (used by
// tests and the handover example to observe PF signalling).
func (c *Conn) OnPathsFrame(fn func(*wire.PathsFrame)) { c.onPathsFrame = fn }

// newController builds a per-path congestion controller.
func (c *Conn) newController() cc.Controller {
	maxCwnd := int(c.cfg.ConnWindow)
	switch c.cfg.CC {
	case CCOlia:
		p := c.olia.AddPath()
		p.SetMaxCwnd(maxCwnd)
		return p
	case CCLia:
		p := c.lia.AddPath()
		p.SetMaxCwnd(maxCwnd)
		return p
	case CCReno:
		r := cc.NewReno(mss())
		r.SetMaxCwnd(maxCwnd)
		return r
	default:
		cub := cc.NewCubic(mss(), c.now)
		cub.SetMaxCwnd(maxCwnd)
		return cub
	}
}

// addPath creates and registers a path.
func (c *Conn) addPath(id wire.PathID, local, remote netem.Addr) *Path {
	p := newPath(id, local, remote, recovery.NewSpaceOn(rtt.New(rtt.DefaultQUIC()), c.sent), c.newController())
	c.paths = append(c.paths, p)
	c.trace(trace.Event{Type: trace.PathOpened, Path: uint8(id), Detail: string(local) + "->" + string(remote)})
	return p
}

// --- handshake ---

// startClientHandshake queues the CHLO on path 0.
func (c *Conn) startClientHandshake() {
	c.hsClient = crypto.NewClientHandshake(c.cfg.HandshakeSeed)
	c.chloPending = true
	c.trySend()
}

func (c *Conn) handleHandshakeFrame(p *Path, f *wire.HandshakeFrame) {
	switch f.Message {
	case wire.HandshakeCHLO:
		if c.role != RoleServer {
			return
		}
		if c.hsServer == nil {
			c.hsServer = crypto.NewServerHandshake(c.cfg.HandshakeSeed + 1)
		}
		shlo, err := c.hsServer.OnCHLO(f.Payload)
		if err != nil {
			c.closeWithError(fmt.Errorf("handshake: %w", err))
			return
		}
		c.shloPayload = shlo
		c.shloPending = true
		if !c.handshakeComplete {
			c.deriveKeys(c.hsServer.Secret())
			c.completeHandshake()
		}
	case wire.HandshakeSHLO:
		if c.role != RoleClient || c.handshakeComplete {
			return
		}
		if err := c.hsClient.OnSHLO(f.Payload); err != nil {
			c.closeWithError(fmt.Errorf("handshake: %w", err))
			return
		}
		c.deriveKeys(c.hsClient.Secret())
		c.completeHandshake()
	}
	p.ackMgr.ForceAck()
}

func (c *Conn) deriveKeys(secret []byte) {
	if !c.cfg.EnableCrypto {
		return
	}
	c2s, s2c := crypto.SessionKeys(secret)
	mk := func(k crypto.Keys) wire.Sealer {
		s, err := crypto.NewSealer(k, c.cfg.Multipath)
		if err != nil {
			panic(err)
		}
		return s
	}
	if c.role == RoleClient {
		c.sealSend, c.sealRecv = mk(c2s), mk(s2c)
	} else {
		c.sealSend, c.sealRecv = mk(s2c), mk(c2s)
	}
}

func (c *Conn) completeHandshake() {
	c.handshakeComplete = true
	c.Stats.HandshakeCompleted = c.now()
	c.trace(trace.Event{Type: trace.HandshakeDone})
	// Path manager: open one path per additional interface (§3, Path
	// Management — "upon handshake completion, it opens one path over
	// each interface on the client host").
	if c.role == RoleClient && c.cfg.Multipath {
		c.openAdditionalPaths()
	}
	if c.cfg.AdvertiseAddresses {
		for i := 1; i < len(c.localAddrs); i++ {
			c.ctrl = append(c.ctrl, &wire.AddAddressFrame{AddrIndex: uint8(i), Address: string(c.localAddrs[i])})
		}
	}
	if c.onHandshakeDone != nil {
		c.onHandshakeDone()
	}
	c.trySend()
}

// openAdditionalPaths pairs local interface i with known remote
// address i and opens a path when both exist.
func (c *Conn) openAdditionalPaths() {
	for i := 1; i < len(c.localAddrs) && len(c.paths) < c.cfg.MaxPaths; i++ {
		if i >= len(c.remoteAddrs) {
			break
		}
		if c.havePathFor(c.localAddrs[i], c.remoteAddrs[i]) {
			continue
		}
		id := c.nextLocalPathID
		c.nextLocalPathID += 2
		p := c.addPath(id, c.localAddrs[i], c.remoteAddrs[i])
		// Activate the path immediately: a PING makes the peer learn
		// the path (and yields its first RTT sample) even when the
		// local side has no data to place in the first packet.
		p.queueCtrl(&wire.PingFrame{})
	}
}

func (c *Conn) havePathFor(local, remote netem.Addr) bool {
	for _, p := range c.paths {
		if p.Local == local && p.Remote == remote {
			return true
		}
	}
	return false
}

// --- receiving ---

// HandleDatagram implements netem.Handler. Under dg.More the datagram
// is consumed in full but the reaction — whatever trySend would emit,
// and the timer re-arm — waits for the step's last datagram, so a batch
// handed over at one instant is answered once (one ACK per path), not
// once per datagram. Any datagram without More pays what is owed,
// including one receive drops.
func (c *Conn) HandleDatagram(dg netem.Datagram) {
	in := peek(dg)
	c.handle(&in)
}

// handle is HandleDatagram for a datagram whose header has been read
// already, which a Listener did to find the connection.
func (c *Conn) handle(in *ingress) {
	if c.closed {
		return
	}
	c.deferring = in.More
	c.receive(in)
	c.deferring = false
	if !in.More {
		c.release()
	}
}

// ingress is a datagram with its public header read. peek is the one
// place on the receive side that knows a datagram carries either wire
// bytes or, in struct mode, the sender's packet.
type ingress struct {
	netem.Datagram
	hdr wire.Header
	// pkt is the struct-mode packet; nil when Raw carries the packet and
	// for a datagram that is neither (corrupt).
	pkt     *wire.Packet
	corrupt bool
}

func peek(dg netem.Datagram) ingress {
	in := ingress{Datagram: dg}
	if dg.Raw != nil {
		var err error
		in.hdr, _, err = wire.ParseHeader(dg.Raw, wire.InvalidPacketNumber)
		in.corrupt = err != nil
	} else if pkt, ok := dg.Payload.(*wire.Packet); ok {
		in.hdr, in.pkt = pkt.Header, pkt
	} else {
		in.corrupt = true
	}
	return in
}

// release performs the send and timer reset that datagrams delivered
// under More left owing, if any (trySend ends by resetting the timer).
func (c *Conn) release() {
	if c.held {
		c.trySend()
	}
}

// receive decodes one ingress datagram and handles its frames.
func (c *Conn) receive(in *ingress) {
	if in.corrupt {
		c.corruptDrops++
		return // a real stack drops silently
	}
	pkt := in.pkt
	if raw := in.Raw; raw != nil {
		// The peeked header names the path, which picks the PN context.
		largest := wire.InvalidPacketNumber
		if p := c.path(in.hdr.PathID); p != nil {
			if l, has := p.ackMgr.LargestReceived(); has {
				largest = l
			}
		}
		var sealer wire.Sealer
		if !in.hdr.Handshake {
			sealer = c.sealRecv
		}
		// The decode borrows raw — the payload is opened in place and
		// frames alias it — and parses into connection-owned scratch.
		// Every handler consumes its frame before HandleDatagram
		// returns; the carrier that delivered raw recycles it then.
		pkt = &c.rxPkt
		if err := wire.DecodeInto(pkt, &c.rxScratch, raw, largest, sealer); err != nil {
			c.corruptDrops++
			return
		}
	}
	if pkt.Header.ConnID != c.connID {
		return
	}
	now := c.now()
	c.lastRecvTime = now

	pathID := pkt.Header.PathID
	if !pkt.Header.Multipath {
		pathID = 0
	}
	p := c.path(pathID)
	if p == nil {
		// Peer-initiated path: adopt addresses from the datagram.
		if len(c.paths) >= c.cfg.MaxPaths {
			return
		}
		p = c.addPath(pathID, in.To, in.From)
	}
	if p.Remote != in.From {
		// NAT rebinding: keep path state, update the remote (§3).
		p.Remote = in.From
	}
	p.RecvPackets++
	p.RecvBytes += uint64(in.Size)
	c.Stats.PacketsReceived++
	c.Stats.BytesReceived += uint64(in.Size)
	if c.cfg.Tracer != nil {
		c.trace(trace.Event{Type: trace.PacketReceived, Path: uint8(p.ID), PN: uint64(pkt.Header.PacketNumber), Size: in.Size})
	}

	if !p.ackMgr.OnPacketReceived(pkt.Header.PacketNumber, pkt.IsRetransmittable(), now) {
		// Duplicate (e.g. scheduler duplication or spurious rtx):
		// still make sure an ack goes out so the sender settles.
		p.ackMgr.ForceAck()
		c.trySend()
		return
	}
	for _, f := range pkt.Frames {
		c.handleFrame(p, f)
		if c.closed {
			return
		}
	}
	c.trySend()
}

func (c *Conn) handleFrame(p *Path, f wire.Frame) {
	switch fr := f.(type) {
	case *wire.HandshakeFrame:
		c.handleHandshakeFrame(p, fr)
	case *wire.AckFrame:
		c.handleAck(p, fr)
	case *wire.StreamFrame:
		c.handleStreamFrame(fr)
	case *wire.WindowUpdateFrame:
		c.handleWindowUpdate(fr)
	case *wire.AddAddressFrame:
		c.handleAddAddress(fr)
	case *wire.PathsFrame:
		c.handlePathsFrame(fr)
	case *wire.ConnectionCloseFrame:
		c.handleRemoteClose(fr)
	case *wire.PingFrame, *wire.PaddingFrame:
		// Ping elicits an ack via the retransmittable flag; padding
		// needs no action.
	}
}

// handleAck routes the ACK to the acknowledged path's space (the ACK
// may arrive on any path; the Path ID field inside it names the space,
// §3).
func (c *Conn) handleAck(recvPath *Path, ack *wire.AckFrame) {
	target := recvPath
	if c.cfg.Multipath {
		target = c.path(ack.PathID)
		if target == nil {
			return
		}
	}
	res := target.space.OnAck(ack, c.now())
	srtt := target.est.SmoothedRTT()
	for _, sp := range res.NewlyAcked {
		target.cc.OnPacketAcked(sp.Size, srtt)
		target.AckedBytes += uint64(sp.Size)
		if c.cfg.Tracer != nil {
			c.trace(trace.Event{Type: trace.PacketAcked, Path: uint8(target.ID), PN: uint64(sp.PN), Size: sp.Size, SRTT: srtt})
		}
		c.onFramesAcked(sp.Frames)
	}
	if len(res.NewlyAcked) > 0 {
		if c.cfg.Tracer != nil {
			c.trace(trace.Event{Type: trace.CwndUpdated, Path: uint8(target.ID), Cwnd: target.cc.Cwnd(), SRTT: srtt})
		}
		target.lastAckProgress = c.now()
		if target.potentiallyFailed {
			// Data acknowledged on the path: it works again (§4.3).
			// Tell the peer, or it would shun the path forever.
			target.potentiallyFailed = false
			c.trace(trace.Event{Type: trace.PathRecovered, Path: uint8(target.ID)})
			if c.cfg.Multipath && c.cfg.PathsFrameOnFailure {
				c.queuePathsFrame()
			}
		}
	}
	if res.CongestionEvent {
		target.cc.OnCongestionEvent()
	}
	c.onLost(target, res.Lost)
}

// onLost counts, traces and requeues the packets p's space declared
// lost, by packet or time threshold or by RTO.
func (c *Conn) onLost(p *Path, lost []*recovery.SentPacket) {
	for _, sp := range lost {
		c.Stats.PacketsLost++
		c.trace(trace.Event{Type: trace.PacketLost, Path: uint8(p.ID), PN: uint64(sp.PN), Size: sp.Size})
		c.requeueFrames(sp.Frames)
	}
}

func (c *Conn) onFramesAcked(frames []wire.Frame) {
	for _, f := range frames {
		switch fr := f.(type) {
		case *wire.StreamFrame:
			if s := c.stream(fr.StreamID); s != nil {
				s.send.OnFrameAcked(fr.Offset, fr.Len(), fr.Fin)
			}
		case *wire.HandshakeFrame:
			switch fr.Message {
			case wire.HandshakeCHLO:
				c.chloPending = false
			case wire.HandshakeSHLO:
				c.shloPending = false
			}
		}
	}
}

// requeueFrames returns lost frames' content to the send queues. Data
// is NOT pinned to the original path: the scheduler will route the
// retransmission wherever it fits (§3, Packet Scheduling).
func (c *Conn) requeueFrames(frames []wire.Frame) {
	for _, f := range frames {
		switch fr := f.(type) {
		case *wire.StreamFrame:
			if s := c.stream(fr.StreamID); s != nil {
				s.send.OnFrameLost(fr.Offset, fr.Len(), fr.Fin)
				c.Stats.Retransmissions++
			}
		case *wire.HandshakeFrame:
			switch fr.Message {
			case wire.HandshakeCHLO:
				if !c.handshakeComplete {
					c.chloPending = true
				}
			case wire.HandshakeSHLO:
				c.shloPending = true
			}
		case *wire.WindowUpdateFrame, *wire.AddAddressFrame, *wire.PathsFrame:
			// Stale window updates are ignored by the peer, so
			// re-sending the same frame is safe and simple.
			c.ctrl = append(c.ctrl, f)
		}
	}
}

func (c *Conn) handleStreamFrame(f *wire.StreamFrame) {
	s := c.stream(f.StreamID)
	if s == nil {
		s = c.newStream(f.StreamID)
		if c.onStreamOpen != nil {
			c.onStreamOpen(s)
		}
	}
	// Check the stream window before reassembly sees the frame: a
	// hostile offset must cost the peer its connection, not us the
	// memory.
	end := f.Offset + uint64(f.Len())
	if end > s.fc.RecvLimit() {
		c.closeWithError(fmt.Errorf("core: flow control violated on stream %d", f.StreamID))
		return
	}
	finBefore := s.recv.FinReceived()
	held := s.recv.Chunks()
	newBytes, err := s.recv.OnFrame(f)
	c.recvChunks += s.recv.Chunks() - held
	if err != nil {
		c.closeWithError(err)
		return
	}
	// Reassembly is charged by the chunks it holds, as Linux charges an
	// skb's truesize to the receive buffer: flow control keeps an honest
	// peer's unread spans within ConnWindow, half of this cap.
	if c.recvChunks > int(2*c.cfg.ConnWindow/stream.ChunkSize) {
		c.closeWithError(fmt.Errorf("core: stream %d: reassembly holds %d chunks", f.StreamID, c.recvChunks))
		return
	}
	if newBytes > 0 {
		c.connRecvTotal += newBytes
		s.fc.OnReceive(end)
		if !c.connFC.OnReceive(c.connRecvTotal) {
			c.closeWithError(fmt.Errorf("core: flow control violated on stream %d", f.StreamID))
			return
		}
	}
	// Signal the application only on progress: fresh bytes or a newly
	// arrived FIN (duplicated packets must not re-fire callbacks).
	if s.onData != nil && (newBytes > 0 || (!finBefore && s.recv.FinReceived())) {
		s.onData()
		// The callback consumed or copied what it read (Stream.Read's
		// contract), so once it has finished the stream its last chunk
		// is dead: hand it back for the next stream.
		if s.recv.Finished() {
			c.recvChunks -= s.recv.Chunks()
			s.recv.Release()
		}
	}
}

func (c *Conn) handleWindowUpdate(f *wire.WindowUpdateFrame) {
	grew := false
	if f.StreamID == 0 {
		grew = c.connFC.UpdateSendLimit(f.Offset)
	} else if s := c.stream(f.StreamID); s != nil {
		grew = s.fc.UpdateSendLimit(f.Offset)
	}
	if grew {
		c.trySend()
	}
}

func (c *Conn) handleAddAddress(f *wire.AddAddressFrame) {
	addr := netem.Addr(f.Address)
	idx := int(f.AddrIndex)
	for len(c.remoteAddrs) <= idx {
		c.remoteAddrs = append(c.remoteAddrs, "")
	}
	c.remoteAddrs[idx] = addr
	if c.role == RoleClient && c.cfg.Multipath && c.handshakeComplete {
		c.openAdditionalPaths()
		c.trySend()
	}
}

func (c *Conn) handlePathsFrame(f *wire.PathsFrame) {
	for _, info := range f.Paths {
		if p := c.path(info.PathID); p != nil {
			p.remotePF = info.PotentiallyFailed
		}
	}
	if c.onPathsFrame != nil {
		c.onPathsFrame(f)
	}
}

func (c *Conn) handleRemoteClose(f *wire.ConnectionCloseFrame) {
	if c.closed {
		return
	}
	c.closeErr = fmt.Errorf("core: closed by peer: %d %s", f.ErrorCode, f.Reason)
	c.trace(trace.Event{Type: trace.ConnClosed, Detail: "by peer"})
	c.finishClose()
}

// finishClose is the common tail of every way a connection ends: stop
// the timer, tell the application (closeErr is nil for a local Close),
// hand back what reassembly holds, then let the accepting listener
// forget the connection.
func (c *Conn) finishClose() {
	c.closed = true
	c.timer.Stop()
	if c.onClosed != nil {
		c.onClosed(c.closeErr)
	}
	for _, s := range c.streams {
		s.recv.Release()
	}
	c.recvChunks = 0
	if c.acceptedBy != nil {
		c.acceptedBy.forget(c)
	}
}

// Close terminates the connection, notifying the peer on every path.
// Called from a callback while HandleDatagram is deferring, it first
// sends what is owed — data written in the same callback, ACKs — as it
// would have left before the close without the hint.
func (c *Conn) Close() {
	if c.held {
		c.deferring = false
		c.trySend()
	}
	if c.closed {
		return
	}
	frame := &wire.ConnectionCloseFrame{ErrorCode: 0, Reason: "done"}
	for _, p := range c.paths {
		c.sendPacket(p, []wire.Frame{frame}, frame.EncodedSize(), false, false) // fire and forget
	}
	c.finishClose()
}

func (c *Conn) closeWithError(err error) {
	if c.closed {
		return
	}
	c.closeErr = err
	c.trace(trace.Event{Type: trace.ConnClosed, Detail: err.Error()})
	c.finishClose()
}

// Err returns the close reason, if any.
func (c *Conn) Err() error { return c.closeErr }

// --- timers ---

func (c *Conn) onTimer() {
	if c.closed {
		return
	}
	now := c.now()
	if c.cfg.IdleTimeout > 0 && now-c.lastRecvTime >= c.cfg.IdleTimeout {
		c.closeWithError(fmt.Errorf("core: idle timeout after %v", c.cfg.IdleTimeout))
		return
	}
	for _, p := range c.paths {
		// Early-retransmit (time threshold) losses.
		if lt := p.space.LossTime(); lt != 0 && lt <= now {
			lost, event := p.space.OnLossTimer(now)
			if event {
				p.cc.OnCongestionEvent()
			}
			c.onLost(p, lost)
		}
		// Retransmission timeout.
		if p.space.HasRetransmittableInFlight() {
			deadline := p.rtoBase() + p.est.RTO()
			if deadline <= now {
				c.onPathRTO(p)
			}
		} else if p.potentiallyFailed {
			// Probe a potentially-failed idle path with a PING at
			// RTO-backoff intervals: a successful ack clears PF (as
			// Linux MPTCP retests failed subflows). Without probes a
			// benched sender-side path could never recover.
			if now-p.lastRetransmittableSent >= p.est.RTO() {
				p.queueCtrl(&wire.PingFrame{})
			}
		}
	}
	c.trySend()
}

// onPathRTO handles a retransmission timeout on one path: all
// outstanding data is requeued (and will be rescheduled, possibly onto
// other paths), the window collapses, and in multipath mode the path
// enters the potentially-failed state of §4.3.
func (c *Conn) onPathRTO(p *Path) {
	lost := p.space.OnRTO(c.now())
	p.cc.OnRTO()
	c.Stats.RTOs++
	c.trace(trace.Event{Type: trace.RTOFired, Path: uint8(p.ID), Cwnd: p.cc.Cwnd()})
	c.onLost(p, lost)
	if c.cfg.Multipath && len(c.paths) > 1 {
		p.potentiallyFailed = true
		c.trace(trace.Event{Type: trace.PathFailed, Path: uint8(p.ID)})
		if c.cfg.PathsFrameOnFailure {
			c.queuePathsFrame()
		}
	}
}

// CorruptDrops reports how many ingress datagrams this connection
// dropped because they did not decode (see the corruptDrops field).
func (c *Conn) CorruptDrops() uint64 { return c.corruptDrops }

// FailPathsOn marks every open path bound to the given local address
// potentially failed — the local-failure entry into §4.3's PF state.
// onPathRTO covers the remote-loss signal (retransmission timeouts);
// this covers the signal only the socket layer can see: the local
// interface died (persistent read/write errors on the socket that
// owns the address). The scheduler then steers traffic to surviving
// paths and the PING probe machinery retests the path, exactly as
// after an RTO-driven PF entry. Single-path connections are left
// alone, mirroring onPathRTO's gating: with nowhere to steer, PF
// would only suppress the retransmissions that effect recovery.
//
// Returns the number of paths newly marked. Safe to call repeatedly;
// already-PF paths are skipped.
func (c *Conn) FailPathsOn(local netem.Addr) int {
	if c.closed || !c.cfg.Multipath || len(c.paths) < 2 {
		return 0
	}
	n := 0
	for _, p := range c.paths {
		if p.Local != local || p.potentiallyFailed {
			continue
		}
		p.potentiallyFailed = true
		n++
		c.trace(trace.Event{Type: trace.PathFailed, Path: uint8(p.ID), Detail: "local socket failure"})
	}
	if n > 0 {
		if c.cfg.PathsFrameOnFailure {
			c.queuePathsFrame()
		}
		c.trySend()
	}
	return n
}

// queuePathsFrame broadcasts the local view of all paths (IDs, PF
// flags, smoothed RTTs) on every non-PF path.
func (c *Conn) queuePathsFrame() {
	f := &wire.PathsFrame{}
	for _, p := range c.paths {
		f.Paths = append(f.Paths, wire.PathInfo{
			PathID:            p.ID,
			PotentiallyFailed: p.potentiallyFailed,
			SRTT:              p.est.SmoothedRTT(),
		})
	}
	for _, p := range c.paths {
		if !p.potentiallyFailed {
			p.queueCtrl(f)
		}
	}
}

// resetTimer re-arms the connection timer to the earliest deadline. It
// ends every trySend pass, which never runs while HandleDatagram is
// deferring.
func (c *Conn) resetTimer() {
	if c.closed {
		return
	}
	deadline := time.Duration(1<<62 - 1)
	for _, p := range c.paths {
		if lt := p.space.LossTime(); lt != 0 && lt < deadline {
			deadline = lt
		}
		if p.space.HasRetransmittableInFlight() {
			if d := p.rtoBase() + p.est.RTO(); d < deadline {
				deadline = d
			}
		} else if p.potentiallyFailed {
			if d := p.lastRetransmittableSent + p.est.RTO(); d < deadline {
				deadline = d
			}
		}
		if ad := p.ackMgr.Deadline(); ad != 0 && ad < deadline {
			deadline = ad
		}
	}
	if c.cfg.IdleTimeout > 0 {
		if d := c.lastRecvTime + c.cfg.IdleTimeout; d < deadline {
			deadline = d
		}
	}
	if deadline == time.Duration(1<<62-1) {
		c.timer.Stop()
		return
	}
	c.timer.Reset(sim.Time(deadline))
}
