// Package netem is a deterministic network emulator.
//
// It plays the role Mininet plays in the paper: packets travel over
// links with a configurable capacity, propagation delay, bounded
// tail-drop queue, and Bernoulli random loss — the four factors of the
// paper's Table 1. Everything runs on a sim.Clock, so transfers are
// exact in virtual time.
//
// The emulator is payload-agnostic: it moves Datagrams whose Size the
// sending stack computed from its wire format. This lets the QUIC, TCP,
// MPTCP and MPQUIC stacks share one network substrate.
package netem

import (
	"fmt"
	"time"

	"mpquic/internal/sim"
	"mpquic/internal/trace"
	"mpquic/internal/wire"
)

// Addr identifies an interface endpoint, e.g. "10.0.1.1:443" or
// "[2001:db8::1]:443". Addresses are opaque strings to the emulator.
type Addr string

// Payload is any packet body a protocol stack hands to the network.
type Payload interface {
	// WireSize is the number of bytes the payload occupies inside the
	// transport datagram (excluding IP/UDP framing, which the sender
	// accounts for in Datagram.Size).
	WireSize() int
}

// Datagram is one network packet in flight.
type Datagram struct {
	From, To Addr
	// Size is the total on-wire size in bytes, including network- and
	// transport-layer framing. Links serialize Size bytes.
	Size int
	// Payload is the packet itself, in struct mode. A *wire.Packet that
	// Network.LendPacket lent is the network's from Send on, exactly as
	// Raw is: a Handler reads it and must not keep it.
	Payload Payload
	// Raw carries the serialized packet bytes in wire-serialization
	// mode; Payload is nil then. A plain field rather than a Payload
	// implementation so the per-packet hot paths never pay an
	// interface-boxing allocation (a slice does not fit an interface
	// word; see core.RawDatagram). From Send on, the carrier owns the
	// buffer; a Handler may read and decode it in place but must not
	// keep or recycle it.
	Raw []byte
	// More is a carrier's hint to the Handler it delivers to: another
	// datagram for this same Handler follows in this same clock step, so
	// the reaction to this one can wait for it. Only a carrier that hands
	// over a whole batch at one instant may set it (live.Driver, from the
	// batch it actually drained), and it must deliver every Handler's
	// last datagram of the step with More false. Network never sets it.
	// Under More a Handler still consumes the datagram in full — frames,
	// acknowledgment processing, application callbacks — and may hold
	// back only what the next datagram would redo: sending, and
	// re-arming its timer. The first datagram without More, whatever
	// becomes of it (corrupt, duplicate, not the Handler's), releases
	// what was held. Senders leave it false.
	More bool
}

// Handler receives datagrams addressed to a registered address.
type Handler interface {
	HandleDatagram(dg Datagram)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(dg Datagram)

// HandleDatagram calls f(dg).
func (f HandlerFunc) HandleDatagram(dg Datagram) { f(dg) }

// LinkConfig describes one unidirectional link.
type LinkConfig struct {
	// RateMbps is the link capacity in megabits per second.
	RateMbps float64
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// QueueDelay bounds the tail-drop queue: the queue holds at most
	// RateMbps×QueueDelay worth of bytes (floored at two MTUs so a
	// zero-buffer link can still carry back-to-back packets).
	QueueDelay time.Duration
	// LossRate is the probability in [0,1] that a packet is dropped
	// after leaving the queue (random wire loss, independent of
	// congestion).
	LossRate float64
}

// MTU is the maximum datagram size the emulator forwards, in bytes,
// including framing. Larger datagrams are rejected with a panic: stacks
// are responsible for segmentation.
const MTU = 1500

// LinkStats counts per-link activity.
type LinkStats struct {
	SentPackets   uint64 // delivered to the far end
	SentBytes     uint64
	QueueDrops    uint64 // tail-drop (congestion) losses
	RandomDrops   uint64 // random (wire) losses, whatever the loss model
	EnqueuedBytes uint64
}

// LossModel decides the fate of each packet as it leaves the link's
// serializer. Implementations are stateful (e.g. a two-state bursty
// process) and must be deterministic given their own seeded PRNG; one
// model instance serves exactly one link. A nil model on a link means
// the built-in Bernoulli draw over LinkConfig.LossRate.
type LossModel interface {
	// Drop reports whether the packet of the given on-wire size is
	// dropped. Called once per packet in transmission order.
	Drop(size int) bool
}

// Link is one unidirectional emulated link.
type Link struct {
	clock *sim.Clock
	rand  *sim.Rand
	cfg   LinkConfig
	name  string

	rateBps    float64 // bytes per second
	queueCap   int     // bytes
	queueBytes int
	busyUntil  sim.Time
	deliver    func(dg Datagram)
	// dropped, when set, is handed every datagram the link drops in
	// place of delivering it (a Network's links: Network.reclaim).
	dropped func(dg Datagram)
	down    bool

	lossModel  LossModel
	jitter     time.Duration
	jitterRand *sim.Rand
	tracer     trace.Tracer

	free []*linkPkt // recycled in-flight packet records

	Stats LinkStats
}

// linkPkt carries one datagram through the link's two-stage pipeline
// (serializer finish, then delivery after propagation) without
// allocating per-packet closures: the finish/deliver callbacks are
// bound once when the record is created and the record is recycled
// after delivery or drop.
type linkPkt struct {
	l         *Link
	dg        Datagram
	finishFn  func()
	deliverFn func()
}

func (l *Link) getPkt(dg Datagram) *linkPkt {
	if n := len(l.free); n > 0 {
		p := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		p.dg = dg
		return p
	}
	p := &linkPkt{l: l, dg: dg}
	p.finishFn = p.finish
	p.deliverFn = p.deliverNow
	return p
}

func (l *Link) putPkt(p *linkPkt) {
	p.dg = Datagram{} // drop the payload reference
	l.free = append(l.free, p)
}

// finish runs when the packet leaves the serializer: free its queue
// space, apply random loss, then schedule delivery after propagation.
func (p *linkPkt) finish() {
	l := p.l
	l.queueBytes -= p.dg.Size
	// Random loss is applied as the packet leaves the serializer: it
	// occupied queue space but never arrives.
	if l.lossModel != nil {
		if l.lossModel.Drop(p.dg.Size) {
			l.dropRandom(p)
			return
		}
	} else if l.cfg.LossRate > 0 && l.rand.Bernoulli(l.cfg.LossRate) {
		l.dropRandom(p)
		return
	}
	l.Stats.SentPackets++
	l.Stats.SentBytes += uint64(p.dg.Size)
	delay := l.cfg.Delay
	if l.jitter > 0 && l.jitterRand != nil {
		delay += time.Duration(l.jitterRand.Float64() * float64(l.jitter))
	}
	l.clock.At(l.clock.Now().Add(delay), p.deliverFn)
}

// dropRandom is the random-loss exit of finish.
func (l *Link) dropRandom(p *linkPkt) {
	l.Stats.RandomDrops++
	dg := p.dg
	l.putPkt(p)
	l.drop(dg)
}

// drop is the last a link sees of a datagram it does not deliver.
func (l *Link) drop(dg Datagram) {
	if l.dropped != nil {
		l.dropped(dg)
	}
}

// deliverNow hands the datagram to the sink. The record is recycled
// first (the datagram is copied out), so a sink that synchronously
// sends on the same link can reuse it.
func (p *linkPkt) deliverNow() {
	l := p.l
	dg := p.dg
	l.putPkt(p)
	l.deliver(dg)
}

// NewLink builds a link delivering to the given sink.
func NewLink(clock *sim.Clock, rand *sim.Rand, name string, cfg LinkConfig, deliver func(dg Datagram)) *Link {
	if cfg.RateMbps <= 0 {
		panic(fmt.Sprintf("netem: link %s has non-positive rate", name))
	}
	l := &Link{
		clock:   clock,
		rand:    rand,
		cfg:     cfg,
		name:    name,
		deliver: deliver,
	}
	l.derive()
	return l
}

// derive recomputes the rate- and queue-capacity parameters from cfg.
func (l *Link) derive() {
	l.rateBps = l.cfg.RateMbps * 1e6 / 8
	l.queueCap = int(l.rateBps * l.cfg.QueueDelay.Seconds())
	if l.queueCap < 2*MTU {
		l.queueCap = 2 * MTU
	}
}

// Config returns the link's configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// QueueCapacityBytes reports the tail-drop bound.
func (l *Link) QueueCapacityBytes() int { return l.queueCap }

// SetLossRate changes the random loss probability at runtime (used by
// scenarios where a path becomes lossy mid-run). It has no effect on a
// link with an installed LossModel, which replaces the Bernoulli draw.
func (l *Link) SetLossRate(p float64) {
	l.cfg.LossRate = p
	l.emitReconfigured()
}

// SetDown drops every subsequent packet when down is true. State
// transitions emit link_down / link_up trace events.
func (l *Link) SetDown(down bool) {
	if down == l.down {
		return
	}
	l.down = down
	if l.tracer != nil {
		typ := trace.LinkUp
		if down {
			typ = trace.LinkDown
		}
		l.tracer.Trace(trace.Event{Time: l.clock.Now().Duration(), Type: typ, Detail: l.name})
	}
}

// Down reports whether the link is currently dropping every packet.
func (l *Link) Down() bool { return l.down }

// Reconfigure replaces the link's configuration at runtime,
// re-deriving the serialization rate and the tail-drop queue capacity.
// Packets already being serialized finish at the old rate; packets
// queued behind them serialize at the new one. A queue that exceeds
// the shrunk capacity is not truncated — it drains and then tail-drops
// at the new bound, as a real qdisc change does.
func (l *Link) Reconfigure(cfg LinkConfig) {
	if cfg.RateMbps <= 0 {
		panic(fmt.Sprintf("netem: reconfigure of link %s with non-positive rate", l.name))
	}
	l.cfg = cfg
	l.derive()
	l.emitReconfigured()
}

// SetLossModel installs (or, with nil, removes) a pluggable loss
// process, replacing the built-in Bernoulli draw over cfg.LossRate.
func (l *Link) SetLossModel(m LossModel) {
	l.lossModel = m
	l.emitReconfigured()
}

// SetJitter adds a uniform per-packet propagation-delay jitter in
// [0, j): each delivered packet draws an independent extra delay from
// r, so closely spaced packets can arrive reordered. The jitter PRNG
// is separate from the link's loss PRNG, keeping loss sequences
// unchanged when jitter is toggled. j <= 0 disables jitter.
func (l *Link) SetJitter(j time.Duration, r *sim.Rand) {
	l.jitter = j
	l.jitterRand = r
	l.emitReconfigured()
}

// SetTracer attaches a tracer receiving the link's lifecycle events
// (link_down, link_up, link_reconfigured). Nil detaches.
func (l *Link) SetTracer(t trace.Tracer) { l.tracer = t }

func (l *Link) emitReconfigured() {
	if l.tracer == nil {
		return
	}
	detail := fmt.Sprintf("%s rate=%gMbps delay=%v queue=%dB loss=%g",
		l.name, l.cfg.RateMbps, l.cfg.Delay, l.queueCap, l.cfg.LossRate)
	if l.lossModel != nil {
		detail += " loss_model=custom"
	}
	if l.jitter > 0 {
		detail += fmt.Sprintf(" jitter=%v", l.jitter)
	}
	l.tracer.Trace(trace.Event{Time: l.clock.Now().Duration(), Type: trace.LinkReconfigured, Detail: detail})
}

// Send enqueues dg. Drops (queue overflow, random loss, link down)
// are silent, exactly as on a real wire.
func (l *Link) Send(dg Datagram) {
	if dg.Size <= 0 || dg.Size > MTU {
		panic(fmt.Sprintf("netem: datagram size %d out of (0,%d] on %s", dg.Size, MTU, l.name))
	}
	if l.down {
		l.Stats.RandomDrops++
		l.drop(dg)
		return
	}
	if l.queueBytes+dg.Size > l.queueCap {
		l.Stats.QueueDrops++
		l.drop(dg)
		return
	}
	l.queueBytes += dg.Size
	l.Stats.EnqueuedBytes += uint64(dg.Size)

	now := l.clock.Now()
	start := l.busyUntil
	if start < now {
		start = now
	}
	txTime := time.Duration(float64(dg.Size) / l.rateBps * float64(time.Second))
	finish := start.Add(txTime)
	l.busyUntil = finish

	l.clock.At(finish, l.getPkt(dg).finishFn)
}

// QueueBytes reports the current queue occupancy.
func (l *Link) QueueBytes() int { return l.queueBytes }

// Network connects registered addresses through routed links.
//
// It owns what a datagram travels in from Send on — the Raw buffer, and
// a struct-mode packet it lent — and every datagram leaves it through
// exactly one exit (delivered, no handler, no route, link down, queue
// overflow, random loss), each of which ends in reclaim.
type Network struct {
	clock *sim.Clock
	rand  *sim.Rand
	// handlers holds one cell per address ever registered or connected.
	// A link's sink resolves its cell once, when the link is built, so a
	// delivery reads a pointer instead of hashing the address.
	handlers map[Addr]*handlerCell
	routes   map[routeKey]*Link
	// recent remembers the routes Send looked up last, replaced in turn,
	// so that it compares a few addresses instead of hashing two. Four,
	// because one connection over the two-path topology uses four: data
	// and acknowledgments alternate, and a single entry would miss four
	// lookups in five.
	recent     [4]recentRoute
	nextRecent int
	// carriers are the struct-mode packets LendPacket hands out.
	carriers wire.PacketPool
	// Dropped counts datagrams sent to an address with no route.
	Dropped uint64
}

type routeKey struct{ from, to Addr }

type recentRoute struct {
	routeKey
	link *Link
}

// handlerCell is the current handler of one address, nil when none.
type handlerCell struct{ h Handler }

// New creates an empty network on the given clock. rand seeds the
// per-link loss processes.
func New(clock *sim.Clock, rand *sim.Rand) *Network {
	return &Network{
		clock:    clock,
		rand:     rand,
		handlers: make(map[Addr]*handlerCell),
		routes:   make(map[routeKey]*Link),
	}
}

// Clock returns the simulation clock the network runs on.
func (n *Network) Clock() *sim.Clock { return n.clock }

// cell returns the handler cell of addr, making it on first use.
func (n *Network) cell(addr Addr) *handlerCell {
	c := n.handlers[addr]
	if c == nil {
		c = new(handlerCell)
		n.handlers[addr] = c
	}
	return c
}

// Register attaches a handler to an address. Re-registering replaces
// the previous handler (used when an endpoint rebinds).
func (n *Network) Register(addr Addr, h Handler) { n.cell(addr).h = h }

// Unregister detaches the handler for addr.
func (n *Network) Unregister(addr Addr) { n.cell(addr).h = nil }

// AddRoute installs a unidirectional link carrying traffic from->to.
func (n *Network) AddRoute(from, to Addr, link *Link) {
	n.routes[routeKey{from, to}] = link
	n.recent = [len(n.recent)]recentRoute{} // one of them may be the route replaced
}

// Connect builds a bidirectional link pair between a and b with the
// same config in both directions and returns (a->b, b->a).
func (n *Network) Connect(a, b Addr, cfg LinkConfig) (*Link, *Link) {
	return n.ConnectAsym(a, b, cfg, cfg)
}

// ConnectAsym is Connect with distinct per-direction configs.
func (n *Network) ConnectAsym(a, b Addr, ab, ba LinkConfig) (*Link, *Link) {
	fwd := n.newLink(a, b, ab)
	rev := n.newLink(b, a, ba)
	return fwd, rev
}

// newLink builds and routes the link from->to: it delivers to the
// handler of to, and what it drops comes back to the network.
func (n *Network) newLink(from, to Addr, cfg LinkConfig) *Link {
	l := NewLink(n.clock, n.rand.Fork(), fmt.Sprintf("%s->%s", from, to), cfg, n.deliverTo(to))
	l.dropped = n.reclaim
	n.AddRoute(from, to, l)
	return l
}

// deliverTo is the sink of every link the network builds: the handler
// of addr borrows the datagram, and the network takes it back once the
// handler returned (or nobody listens). Each delivery is an event of
// its own, so no datagram leaves here with More set — not even one a
// handler forwarded as it received it.
func (n *Network) deliverTo(addr Addr) func(dg Datagram) {
	cell := n.cell(addr)
	return func(dg Datagram) {
		dg.More = false
		if cell.h != nil {
			cell.h.HandleDatagram(dg)
		}
		n.reclaim(dg)
	}
}

// LendPacket lends a struct-mode sender the packet its next datagram
// travels as: the sender fills it (wire.Packet.Fill), sends it as the
// Payload, and from then on it is the network's, which takes it back at
// the datagram's exit and lends it again. A sender that asks nobody and
// sends a packet of its own keeps that packet: reclaim leaves it alone.
func (n *Network) LendPacket() *wire.Packet { return n.carriers.Get() }

// reclaim is the one place the simulator recycles what a datagram
// travelled in, run once at every exit of the network: the Raw buffer
// rejoins the wire pool and a lent packet the network's carriers. Both
// pools turn away what is not theirs (see wire.PutPacketBuf and
// wire.PacketPool.Put), the second also a carrier that is already back.
func (n *Network) reclaim(dg Datagram) {
	wire.PutPacketBuf(dg.Raw)
	if pkt, ok := dg.Payload.(*wire.Packet); ok {
		n.carriers.Put(pkt)
	}
}

// Send routes one datagram. Datagrams with no installed route are
// counted in Dropped and discarded.
func (n *Network) Send(dg Datagram) {
	link := n.Route(dg.From, dg.To)
	if link == nil {
		n.Dropped++
		n.reclaim(dg)
		return
	}
	link.Send(dg)
}

// Route returns the link from->to, or nil.
func (n *Network) Route(from, to Addr) *Link {
	for i := range n.recent {
		if r := &n.recent[i]; r.link != nil && r.from == from && r.to == to {
			return r.link
		}
	}
	link := n.routes[routeKey{from, to}]
	if link != nil {
		n.recent[n.nextRecent] = recentRoute{routeKey{from, to}, link}
		n.nextRecent = (n.nextRecent + 1) % len(n.recent)
	}
	return link
}
