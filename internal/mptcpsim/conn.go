package mptcpsim

import (
	"mpquic/internal/cc"
	"mpquic/internal/netem"
	"mpquic/internal/stream"
	"mpquic/internal/tcpsim"
	"mpquic/internal/trace"
)

// Config tunes an MPTCP connection: the TCP settings, with RecvWindow
// the connection-level receive window and TLS run on the initial
// subflow only. Events carry the subflow ID as the path.
type Config struct {
	tcpsim.Config
	// ORP enables Opportunistic Retransmission and Penalization.
	// Ablation switch (§4.1 blames ORP for goodput loss on
	// heterogeneous paths).
	ORP bool
}

// DefaultConfig mirrors MPTCP v0.91 with the paper's settings.
func DefaultConfig() Config {
	return Config{Config: tcpsim.DefaultConfig(), ORP: true}
}

// Stats aggregates connection counters.
type Stats struct {
	Reinjections  uint64
	Penalizations uint64
}

// dataChunk queues connection-level data for (re)injection.
type dataChunk struct {
	start, end uint64
	dataFin    bool
}

// Conn is one endpoint of an MPTCP connection. Its Endpoint's stream is
// the connection-level one, fed by every subflow through its DSS
// mapping.
type Conn struct {
	tcpsim.Endpoint
	cfg      Config
	nw       *netem.Network
	isClient bool
	token    uint32

	locals  []netem.Addr
	remotes []netem.Addr

	subflows    []*Subflow
	eligibleBuf []*Subflow // eligible's scratch
	olia        *cc.Olia

	// Connection-level send state.
	dataNxt       uint64
	finAssigned   bool
	dataAcked     uint64 // peer's cumulative data ack
	peerDataLimit uint64 // dataAck + window high-water mark
	reinjectQueue []dataChunk
	lastORPAt     uint64 // dataAcked value of the last ORP reinjection
	orpArmed      bool

	dataReceived stream.IntervalSet

	Stats Stats
}

func newConn(nw *netem.Network, cfg Config, isClient bool, token uint32, locals, remotes []netem.Addr) *Conn {
	c := &Conn{
		cfg:      cfg,
		nw:       nw,
		isClient: isClient,
		token:    token,
		locals:   locals,
		remotes:  remotes,
		olia:     cc.NewOlia(MSS),
	}
	c.Init(nw.Clock(), cfg.Config, &c.dataReceived, c.onSubflowRTO, c.trySend, c.sendAck)
	return c
}

// SampleInto appends one PathSample per subflow (creation order) to
// rec, stamped with the current simulated time. Sampling only reads
// state; attaching a sampler never changes a run's schedule or
// results.
func (c *Conn) SampleInto(rec *trace.SeriesRecorder) {
	for _, sf := range c.subflows {
		sf.SampleInto(rec)
	}
}

// DialMPTCP starts a client connection: the initial subflow's 3-way
// handshake (plus TLS) runs on locals[0]→remotes[0]; additional
// subflows join — each with its own 3-way handshake — once the
// connection is established.
func DialMPTCP(nw *netem.Network, cfg Config, token uint32, locals, remotes []netem.Addr) *Conn {
	if len(locals) == 0 || len(remotes) == 0 {
		panic("mptcpsim: need at least one address pair")
	}
	c := newConn(nw, cfg, true, token, locals, remotes)
	for _, a := range locals {
		nw.Register(a, c)
	}
	c.addSubflow(0, locals[0], remotes[0]).Connect()
	return c
}

// Listener accepts MPTCP connections, demultiplexing by token.
type Listener struct {
	tcpsim.Acceptor[uint32, *Conn]
	nw    *netem.Network
	cfg   Config
	addrs []netem.Addr
}

// ListenMPTCP registers a server on the given addresses.
func ListenMPTCP(nw *netem.Network, cfg Config, addrs []netem.Addr) *Listener {
	l := &Listener{nw: nw, cfg: cfg, addrs: addrs}
	for _, a := range addrs {
		nw.Register(a, l)
	}
	return l
}

// HandleDatagram implements netem.Handler for the listener. Only an
// initial SYN opens a connection: a join for an unknown token is
// refused, as Linux refuses an MP_JOIN it cannot match, so a
// connection's first subflow is always subflow 0.
func (l *Listener) HandleDatagram(dg netem.Datagram) {
	seg, ok := dg.Payload.(*tcpsim.Segment)
	if !ok {
		return
	}
	c, ok := l.Lookup(seg.Token, seg.SYN && !seg.Join, func() *Conn {
		c := newConn(l.nw, l.cfg, false, seg.Token, l.addrs, []netem.Addr{dg.From})
		c.addSubflow(0, dg.To, dg.From)
		return c
	})
	if ok {
		c.handleSegment(dg, seg)
	}
}

// HandleDatagram implements netem.Handler for the client side.
func (c *Conn) HandleDatagram(dg netem.Datagram) {
	seg, ok := dg.Payload.(*tcpsim.Segment)
	if !ok {
		return
	}
	c.handleSegment(dg, seg)
}

// addSubflow creates subflow state. TLS runs on the initial subflow
// only; joined subflows make a plain 3WHS.
func (c *Conn) addSubflow(id uint8, local, remote netem.Addr) *Subflow {
	path := c.olia.AddPath()
	path.SetMaxCwnd(int(c.cfg.RecvWindow))
	sf := &Subflow{Flow: tcpsim.NewFlow(c.nw, id, local, remote, path, id == 0,
		func(seg *tcpsim.Segment) {
			c.stamp(seg, id)
			seg.Join = seg.SYN && id != 0
			seg.Window = c.AdvertisedWindow()
		})}
	c.subflows = append(c.subflows, sf)
	c.AddFlow(sf.Flow)
	return sf
}

// stamp marks seg as a segment of this connection's subflow id.
func (c *Conn) stamp(seg *tcpsim.Segment, id uint8) {
	seg.MP = true
	seg.Token = c.token
	seg.SubflowID = id
}

// SubflowByID returns a subflow or nil.
func (c *Conn) SubflowByID(id uint8) *Subflow {
	for _, sf := range c.subflows {
		if sf.ID == id {
			return sf
		}
	}
	return nil
}

// BytesReceived reports distinct data bytes received.
func (c *Conn) BytesReceived() uint64 { return c.dataReceived.Size() }
