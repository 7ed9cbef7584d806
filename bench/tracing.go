package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"mpquic/internal/core"
	"mpquic/internal/live"
	"mpquic/internal/netem"
	"mpquic/internal/sim"
	"mpquic/internal/trace"
	"mpquic/internal/wire"
)

// The traced run interposes only at seams the program already offers:
// a core.DatagramSender decorator (spans around Send and around the
// netem.Handler given to Register, plus a copy of the first packets
// sent), a counting trace.Tracer in core.Config.Tracer, and a
// live.SocketWrapper. Nothing inside the program is edited.

const (
	// maxSpans bounds the spans one side keeps for the span file; every
	// span still reaches the per-kind aggregates.
	maxSpans = 1 << 15
	// maxCapture bounds the packets copied for the isolated drivers.
	maxCapture = 1 << 15
)

type spanKind uint8

const (
	spanUnit spanKind = iota
	spanIngress
	spanEgress
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"bench.unit", "core.ingress", "core.egress"}

// span is one timed call at a layer boundary. parent indexes the same
// side's spans (-1: none); spans of one transfer share xfer.
type span struct {
	kind       spanKind
	xfer       int32
	parent     int32
	start, end time.Duration // host time since process start
}

// capPkt is one datagram as handed to Send: the wire bytes (copied) or,
// in struct mode, the packet itself, which core never reuses.
type capPkt struct {
	seq        int64
	at         time.Duration // sender's clock: sim time, or host time in live mode
	xfer       int32
	fromServer bool
	size       int
	raw        []byte
	pkt        *wire.Packet
}

// eventCounter is the counting trace.Tracer: one instance per endpoint
// role, because live endpoints run on different goroutines.
type eventCounter struct {
	lost, rtos uint64
}

func (c *eventCounter) Trace(ev trace.Event) {
	switch ev.Type {
	case trace.PacketLost:
		c.lost++
	case trace.RTOFired:
		c.rtos++
	}
}

// connAcc accumulates end-of-transfer connection state.
type connAcc struct {
	pktsSent, pktsRecvd   uint64
	wireBytes             uint64 // datagram bytes both ways, as the client counts them
	rtx, dups, corrupt    uint64
	path0Bytes, pathBytes uint64
	minCwnd               int // 0: nothing observed yet
	maxSRTT               time.Duration
	handshakeMs           []float64
}

func (a *connAcc) observePaths(c *core.Conn, cwnd bool) {
	for _, p := range c.Paths() {
		if s := p.RTT().SmoothedRTT(); s > a.maxSRTT {
			a.maxSRTT = s
		}
		if w := p.CC().Cwnd(); cwnd && (a.minCwnd == 0 || w < a.minCwnd) {
			a.minCwnd = w
		}
	}
}

// observeClient folds in a finished client connection: the receiver of
// the download, so its sent packets are (almost only) acknowledgments.
func (a *connAcc) observeClient(c *core.Conn) {
	a.pktsSent += c.Stats.PacketsSent
	a.pktsRecvd += c.Stats.PacketsReceived
	a.wireBytes += c.Stats.BytesSent + c.Stats.BytesReceived
	a.corrupt += c.CorruptDrops()
	for _, p := range c.Paths() {
		a.pathBytes += p.RecvBytes
		if p.ID == 0 {
			a.path0Bytes += p.RecvBytes
		}
	}
	a.observePaths(c, false)
}

// observeServer folds in a server connection: the data sender, whose
// congestion window and loss counters explain the transfer.
func (a *connAcc) observeServer(c *core.Conn) {
	a.pktsSent += c.Stats.PacketsSent
	a.pktsRecvd += c.Stats.PacketsReceived
	a.rtx += c.Stats.Retransmissions
	a.dups += c.Stats.DuplicatedPackets
	a.corrupt += c.CorruptDrops()
	a.observePaths(c, true)
}

// side is everything one endpoint role records. In live mode the
// server side is written by the server's run-loop goroutine and the
// client side by the harness goroutine; they are merged only after the
// server has stopped.
type side struct {
	tr         *tracer
	fromServer bool

	spans  []span
	count  [numSpanKinds]uint64
	total  [numSpanKinds]time.Duration
	nested time.Duration // egress time spent inside ingress spans
	// open is the ingress span being handled: its index, -1 for none,
	// -2 for one past the span cap.
	open int32
	unit int32 // the transfer's bench.unit span (client side), or -1

	captured []capPkt
	events   eventCounter
	conns    connAcc
}

func (s *side) record(k spanKind, start, end time.Duration) int32 {
	s.count[k]++
	s.total[k] += end - start
	if k == spanEgress && s.open != -1 {
		s.nested += end - start
	}
	if len(s.spans) >= maxSpans {
		return -2
	}
	parent := s.unit
	if k == spanEgress && s.open >= 0 {
		parent = s.open
	}
	s.spans = append(s.spans, span{kind: k, xfer: s.tr.xfer.Load(), parent: parent, start: start, end: end})
	return int32(len(s.spans) - 1)
}

// wrap returns nw decorated for this side. now is the clock captured
// packets are stamped with.
func (s *side) wrap(nw core.DatagramSender, now func() time.Duration) core.DatagramSender {
	return &tracedNet{inner: nw, s: s, now: now}
}

type tracedNet struct {
	inner core.DatagramSender
	s     *side
	now   func() time.Duration
}

func (t *tracedNet) Clock() *sim.Clock { return t.inner.Clock() }

func (t *tracedNet) Register(addr netem.Addr, h netem.Handler) {
	t.inner.Register(addr, &tracedHandler{inner: h, s: t.s})
}

func (t *tracedNet) Send(dg netem.Datagram) {
	s := t.s
	if seq := s.tr.seq.Add(1); seq <= maxCapture {
		c := capPkt{seq: seq, at: t.now(), xfer: s.tr.xfer.Load(), fromServer: s.fromServer, size: dg.Size}
		if dg.Raw != nil {
			c.raw = append([]byte(nil), dg.Raw...)
		} else if p, ok := dg.Payload.(*wire.Packet); ok {
			c.pkt = p
		}
		s.captured = append(s.captured, c)
	}
	t0 := wall.Elapsed()
	t.inner.Send(dg)
	s.record(spanEgress, t0, wall.Elapsed())
}

// tracedHandler times the whole of HandleDatagram: open, decode, ack
// and frame handling, and the sends the datagram triggers.
type tracedHandler struct {
	inner netem.Handler
	s     *side
}

func (h *tracedHandler) HandleDatagram(dg netem.Datagram) {
	s := h.s
	t0 := wall.Elapsed()
	// Reserve the span first so the egress spans of this datagram can
	// name it as their parent; its end is filled in below.
	idx := s.record(spanIngress, t0, t0)
	s.open = idx
	h.inner.HandleDatagram(dg)
	s.open = -1
	t1 := wall.Elapsed()
	s.total[spanIngress] += t1 - t0
	if idx >= 0 {
		s.spans[idx].end = t1
	}
}

// CorruptDrops and FailPathsOn keep the optional interfaces the live
// driver probes its handlers for.
func (h *tracedHandler) CorruptDrops() uint64 {
	if cd, ok := h.inner.(interface{ CorruptDrops() uint64 }); ok {
		return cd.CorruptDrops()
	}
	return 0
}

func (h *tracedHandler) FailPathsOn(local netem.Addr) int {
	if fp, ok := h.inner.(interface{ FailPathsOn(netem.Addr) int }); ok {
		return fp.FailPathsOn(local)
	}
	return 0
}

// sockStats times the socket calls of the traced live drivers. Reads
// happen on the drivers' reader goroutines, hence atomics.
type sockStats struct {
	readNs, reads, writeNs, writes, writeErrs atomic.Int64
}

type timedConn struct {
	live.UDPConn
	st *sockStats
}

func (c *timedConn) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	t0 := wall.Elapsed()
	n, from, err := c.UDPConn.ReadFromUDPAddrPort(b)
	if err == nil {
		// Blocking included: this is how long a reader waited for a
		// datagram, not how long the syscall was busy.
		c.st.readNs.Add(int64(wall.Elapsed() - t0))
		c.st.reads.Add(1)
	}
	return n, from, err
}

func (c *timedConn) WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error) {
	t0 := wall.Elapsed()
	n, err := c.UDPConn.WriteToUDPAddrPort(b, addr)
	c.st.writeNs.Add(int64(wall.Elapsed() - t0))
	c.st.writes.Add(1)
	if err != nil {
		c.st.writeErrs.Add(1)
	}
	return n, err
}

// transferInfo is what the isolated drivers need to read a transfer's
// captured packets back.
type transferInfo struct {
	handshakeSeed uint64
	multipath     bool
	crypto        bool
}

// driverStats sums the live drivers' own counters over traced units.
type driverStats struct {
	pktsIn, batches, maxBatch, rcvDrops uint64
}

func (d *driverStats) add(st live.Stats) {
	d.pktsIn += st.PacketsIn
	d.batches += st.IngressBatches
	if st.MaxBatch > d.maxBatch {
		d.maxBatch = st.MaxBatch
	}
	d.rcvDrops += st.RcvQueueDrops
}

// tracer is the state of one traced run.
type tracer struct {
	client, server side
	sock           sockStats
	seq            atomic.Int64
	xfer           atomic.Int32
	transfers      []transferInfo // indexed by transfer id

	payload                 uint64 // application bytes of the traced transfers
	queueDrops, randomDrops uint64
	drivers                 driverStats

	mpquicAllocs, mpquicRuns uint64
	mptcpNs                  int64
	mptcpIncomplete          int
}

func newTracer() *tracer {
	tr := &tracer{}
	tr.client = side{tr: tr, open: -1, unit: -1}
	tr.server = side{tr: tr, fromServer: true, open: -1, unit: -1}
	tr.xfer.Store(-1)
	return tr
}

// beginTransfer opens a traced transfer: later spans and captured
// packets carry its id, and the client side's are children of its
// bench.unit span. Called from the harness goroutine only.
func (tr *tracer) beginTransfer(info transferInfo) {
	id := int32(len(tr.transfers))
	tr.transfers = append(tr.transfers, info)
	tr.xfer.Store(id)
	tr.client.unit = -1
	now := wall.Elapsed()
	tr.client.unit = tr.client.record(spanUnit, now, now)
}

// endTransfer closes the transfer's unit span; payload is what the
// application received.
func (tr *tracer) endTransfer(payload uint64) {
	tr.payload += payload
	now := wall.Elapsed()
	if u := tr.client.unit; u >= 0 {
		tr.client.total[spanUnit] += now - tr.client.spans[u].start
		tr.client.spans[u].end = now
	}
	tr.client.unit = -1
	tr.xfer.Store(-1)
}

func (tr *tracer) addLinkStats(st netem.LinkStats) {
	tr.queueDrops += st.QueueDrops
	tr.randomDrops += st.RandomDrops
}

func (tr *tracer) socketWrapper() live.SocketWrapper {
	return func(_ int, c live.UDPConn) live.UDPConn { return &timedConn{UDPConn: c, st: &tr.sock} }
}

// capturedMix merges both sides' captures into send order.
func (tr *tracer) capturedMix() []capPkt {
	mix := append(append([]capPkt(nil), tr.client.captured...), tr.server.captured...)
	sort.Slice(mix, func(i, j int) bool { return mix[i].seq < mix[j].seq })
	return mix
}

// spanLine is the span file's record: one JSON object per line.
type spanLine struct {
	Side    string `json:"side"`
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	Xfer    int32  `json:"xfer"`
}

// writeSpans writes the in-memory spans out, client side first. id and
// parent index spans of the same side; parent -1 is a root.
func (tr *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range []*side{&tr.client, &tr.server} {
		name := "client"
		if s.fromServer {
			name = "server"
		}
		for i, sp := range s.spans {
			if err == nil {
				err = enc.Encode(spanLine{Side: name, ID: i, Name: spanNames[sp.kind],
					StartNs: int64(sp.start), EndNs: int64(sp.end), Parent: sp.parent, Xfer: sp.xfer})
			}
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	return errors.Join(err, f.Close())
}

// report turns what the traced units recorded, and what the isolated
// drivers measure on the captured packet mix, into per-layer metrics.
// tracedPkts is the data-packet count of the traced units and cpuNs
// their CPU time, user plus system.
func (tr *tracer) report(res *result, tracedPkts uint64, cpuNs float64) {
	c, s := &tr.client, &tr.server
	res.set("bench.spans_recorded", float64(len(c.spans)+len(s.spans)))
	res.set("netem.queue_drops", float64(tr.queueDrops))
	res.set("netem.random_drops", float64(tr.randomDrops))

	ingress := float64(c.total[spanIngress] + s.total[spanIngress])
	if n := float64(c.count[spanIngress] + s.count[spanIngress]); n > 0 {
		res.set("core.ingress_ns_per_pkt", ingress/n)
	}
	res.set("core.egress_pkts", float64(c.count[spanEgress]+s.count[spanEgress]))
	res.set("core.dup_pkts", float64(s.conns.dups))
	res.set("core.corrupt_drops", float64(c.conns.corrupt+s.conns.corrupt))
	if c.conns.pathBytes > 0 {
		res.set("core.path0_byte_share", float64(c.conns.path0Bytes)/float64(c.conns.pathBytes))
	}
	res.set("core.handshake_ms_p50", median(c.conns.handshakeMs))

	if c.conns.pktsRecvd > 0 {
		res.set("recovery.acks_per_data_pkt", float64(c.conns.pktsSent)/float64(c.conns.pktsRecvd))
	}
	res.set("recovery.pkts_lost", float64(c.events.lost+s.events.lost))
	res.set("recovery.rtos", float64(c.events.rtos+s.events.rtos))
	if s.conns.pktsSent > 0 {
		res.set("recovery.rtx_ratio", float64(s.conns.rtx)/float64(s.conns.pktsSent))
	}
	res.set("cc.final_cwnd_bytes_min", float64(s.conns.minCwnd))
	srtt := c.conns.maxSRTT
	if s.conns.maxSRTT > srtt {
		srtt = s.conns.maxSRTT
	}
	res.set("rtt.srtt_ms_max", srtt.Seconds()*1e3)

	writeNs := float64(tr.sock.writeNs.Load())
	if n := tr.sock.writes.Load(); n > 0 {
		res.set("live.socket_write_ns_per_pkt", writeNs/float64(n))
	}
	if n := tr.sock.reads.Load(); n > 0 {
		res.set("live.socket_read_wait_ns_per_pkt", float64(tr.sock.readNs.Load())/float64(n))
		if tracedPkts > 0 {
			// Derived: the CPU the run loops, socket reads, scheduler and
			// collector cost beyond protocol handling and socket writes.
			// Spans are wall time, so a preempted handler inflates them
			// and deflates this.
			res.set("live.loop_self_ns_per_pkt", (cpuNs-ingress-writeNs)/float64(tracedPkts))
		}
	}
	res.set("live.write_errors", float64(tr.sock.writeErrs.Load()))
	if tr.drivers.batches > 0 {
		res.set("live.pkts_per_batch", float64(tr.drivers.pktsIn)/float64(tr.drivers.batches))
	}
	res.set("live.max_batch", float64(tr.drivers.maxBatch))
	res.set("live.rcv_queue_drops", float64(tr.drivers.rcvDrops))

	if tr.mpquicRuns > 0 {
		res.set("expdesign.allocs_per_run_mpquic", float64(tr.mpquicAllocs)/float64(tr.mpquicRuns))
	}

	if tr.payload > 0 {
		res.set("wire.overhead_ratio", float64(c.conns.wireBytes)/float64(tr.payload))
	}

	mix := tr.capturedMix()
	res.set("bench.capture_pkts", float64(len(mix)))
	runLayerDrivers(res, tr, mix)
}
