package core

import (
	"mpquic/internal/netem"
	"mpquic/internal/sim"
	"mpquic/internal/wire"
)

// DatagramSender is core's egress boundary: the three capabilities a
// connection needs from whatever carries its datagrams. The emulated
// *netem.Network satisfies it natively (the deterministic simulator
// path); internal/live implements it over real UDP sockets, so the
// protocol logic above this line is byte-identical in both worlds.
//
// The contract mirrors the simulator's single-threaded discipline:
// Send and Register are only called from the goroutine driving the
// returned Clock (event callbacks, or setup before the clock runs).
// Implementations therefore need no internal locking, and a Send may
// be deferred until the current event batch finishes (the live driver
// queues and flushes; links enqueue into their serializer) — ordering
// of datagrams from one endpoint is preserved either way. Send runs no
// handler before it returns, even for a datagram to one of the
// carrier's own addresses: delivery is always a later clock event or
// step. A connection's send pass relies on this to never be
// re-entered.
type DatagramSender interface {
	// Send transmits one datagram toward dg.To. Delivery is best
	// effort: losses are silent, exactly as on a real wire.
	Send(dg netem.Datagram)
	// Register attaches h as the ingress handler for the local
	// address addr — the local-addr identity half of the boundary.
	// Re-registering an address replaces the previous handler.
	Register(addr netem.Addr, h netem.Handler)
	// Clock is the virtual clock the endpoint schedules on. In the
	// simulator it is the discrete-event loop; in live mode it is a
	// monotone image of the wall clock (see internal/live).
	Clock() *sim.Clock
}

// packetLender is what a DatagramSender may also be: a carrier that
// lends the struct-mode packets it is sent and takes them back itself,
// because it sees every datagram's exit (netem.Network.LendPacket). A
// connection asks once, when it is made. From a lender, sendPacket fills
// a packet on loan; from any other sender — one that keeps what it is
// sent, like a capturing test fake or a tracing decorator — a fresh one
// nobody recycles. Either way the peer is handed a packet of its own.
type packetLender interface {
	LendPacket() *wire.Packet
}

// rawLender is what a DatagramSender may also be: a carrier that lends
// the bytes a wire-mode datagram from local address from is encoded
// into — length 0, capacity for a full packet — and that Send then
// finds in place (live.Driver: the free tail of that socket's batch
// buffer). A connection asks once, when it is made. From a lender,
// sendPacket encodes into the loan, and into netem.RawBuffer bytes when
// the lender returns nil; from any other sender, always into
// netem.RawBuffer bytes, which Send takes over. Core never recycles
// them. Nothing may be sent from the same address between the loan and
// its Send.
type rawLender interface {
	LendRaw(from netem.Addr) []byte
}

// The emulated network is the canonical DatagramSender, and lends
// struct-mode packets; it does not lend bytes, so in wire mode the
// simulator encodes into netem.RawBuffer bytes, which the network takes
// back at the datagram's exit.
var (
	_ DatagramSender = (*netem.Network)(nil)
	_ packetLender   = (*netem.Network)(nil)
)

// RawDatagram wraps an already-encoded packet as an ingress datagram,
// exactly as the wire-serialization mode produces them: b holds the
// serialized QUIC packet, and Size accounts for the UDP/IPv4 framing a
// real datagram pays. The live driver uses it to inject packets read
// from a UDP socket into HandleDatagram.
//
// HandleDatagram only borrows b: the endpoint decodes in place and
// consumes every frame before it returns, and never recycles. Whoever
// delivered the datagram owns b and takes it back once the handler
// returned: netem.Network returns RawBuffer bytes to its pool,
// live.Driver its slice of a run buffer to the socket's reader.
//
// More is left false; a carrier injecting a batch at one instant sets
// it on a datagram when the batch's next one goes to the same handler,
// as live.Driver does (see netem.Datagram.More).
func RawDatagram(from, to netem.Addr, b []byte) netem.Datagram {
	return netem.Datagram{
		From: from,
		To:   to,
		Size: len(b) + wire.UDPIPv4Overhead,
		Raw:  b,
	}
}
