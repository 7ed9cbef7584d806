// Package tcpsim models HTTPS over TCP — the paper's single-path
// baseline (§4): a 3-way handshake followed by a 2-RTT TLS 1.2
// exchange (3 RTTs before application data vs QUIC's 1), cumulative
// acknowledgments with at most 3 SACK blocks (vs QUIC's 256 ACK
// ranges), Karn-degraded coarse RTT samples, and CUBIC congestion
// control. These are exactly the protocol properties the paper uses to
// explain where (MP)QUIC wins.
//
// The model is segment-based over the same netem substrate as the QUIC
// stacks, with byte-accurate header accounting (IPv4 + TCP + options).
// Flow is the machine of one TCP flow; Conn puts a byte stream on one,
// and mptcpsim builds its subflows on the same type.
package tcpsim

import (
	"mpquic/internal/stream"
	"mpquic/internal/wire"
)

// Wire-size constants.
const (
	// MSS is the maximum TCP payload per segment, chosen so the full
	// datagram matches the QUIC stacks' wire footprint: a
	// MaxPacketSize QUIC packet plus its UDP/IP framing (1378 bytes),
	// less headerBase.
	MSS = wire.MaxPacketSize + wire.UDPIPv4Overhead - headerBase
	// headerBase is IPv4 (20) + TCP (20) + timestamp option (12).
	headerBase = 52
	// sackBlockSize is the per-block cost of the SACK option.
	sackBlockSize = 8
	// sackOptionOverhead is the fixed SACK option header (2 bytes,
	// padded to 4 with NOPs).
	sackOptionOverhead = 4
	// MaxSACKBlocks is the option-space limit the paper contrasts
	// with QUIC's 256 ACK ranges (§4.1: "2-3 blocks ... depending on
	// the space consumed by the other TCP options").
	MaxSACKBlocks = 3
)

// CtlType marks handshake control segments.
type CtlType uint8

// Handshake control message types. TCP's SYN/SYN-ACK/ACK is modeled
// with the SYN flags; TLS 1.2's two round trips use ctl segments.
const (
	CtlNone       CtlType = iota
	CtlTLSClient1         // ClientHello
	CtlTLSServer1         // ServerHello, Certificate, Done
	CtlTLSClient2         // ClientKeyExchange, CCS, Finished
	CtlTLSServer2         // CCS, Finished
)

// ctlSize models the wire size of each TLS flight's payload.
func ctlSize(t CtlType) int {
	switch t {
	case CtlTLSClient1:
		return 300
	case CtlTLSServer1:
		return 1200 // certificate chain, abbreviated
	case CtlTLSClient2:
		return 350
	case CtlTLSServer2:
		return 60
	default:
		return 0
	}
}

// SACKBlock is one selective-acknowledgment range [Start, End).
type SACKBlock struct {
	Start, End uint64
}

// Segment is one TCP segment in flight, a datagram's payload. It
// implements netem.Lent when a flow lent it (Flow.NewSegment): from Send on
// the network owns it, a handler reads it for one HandleDatagram and
// must not keep it, and the network returns it to its flow at the
// datagram's exit.
type Segment struct {
	SYN, ACK, FIN bool
	Ctl           CtlType

	Seq    uint64 // first payload byte's sequence number
	Len    int    // payload length (synthetic)
	AckNum uint64 // cumulative acknowledgment
	Window uint64 // receive window (bytes beyond AckNum)
	SACK   []SACKBlock

	// Multipath TCP DSS-style fields (used by mptcpsim; zero for
	// plain TCP). DataSeq maps this segment's payload into the
	// connection-level byte stream; DataAck is the connection-level
	// cumulative ack; DataFin signals the end of the data stream.
	MP      bool
	DataSeq uint64
	DataAck uint64
	DataFin bool
	// DataFinOnly marks a bare DATA_FIN carrier: one subflow byte,
	// no application payload, fin sequence = DataSeq.
	DataFinOnly bool
	// Token demultiplexes subflows of one MPTCP connection (MP_JOIN's
	// token); SubflowID names the subflow; Join marks an MP_JOIN SYN.
	Token     uint32
	SubflowID uint8
	Join      bool

	sack   [MaxSACKBlocks]SACKBlock // what FillAck points SACK at
	lender *Flow                    // the flow that has it out on loan, nil when none
}

// NewSegment lends a zeroed segment from the flow's free list. Sending
// it gives it to the network, which returns it through Return.
func (f *Flow) NewSegment() *Segment {
	var s *Segment
	if n := len(f.segs); n > 0 {
		s = f.segs[n-1]
		f.segs[n-1] = nil
		f.segs = f.segs[:n-1]
		*s = Segment{}
	} else {
		s = new(Segment)
	}
	s.lender = f
	return s
}

// Return implements netem.Lent: the segment goes back to the flow that
// lent it. A segment nobody lent, or one already back, is left alone.
func (s *Segment) Return() {
	f := s.lender
	if f == nil {
		return
	}
	s.lender = nil
	f.segs = append(f.segs, s)
}

// WireSize is the segment's size inside its datagram: headers +
// options + payload.
func (s *Segment) WireSize() int {
	n := headerBase + s.Len
	if len(s.SACK) > 0 {
		n += sackOptionOverhead + sackBlockSize*len(s.SACK)
	}
	if s.MP {
		n += 20 // DSS option: data seq + data ack + checksum
	}
	if s.Join {
		n += 16 // MP_JOIN option
	}
	if s.Ctl != CtlNone {
		n += ctlSize(s.Ctl)
	}
	return n
}

// End returns the sequence number after the payload.
func (s *Segment) End() uint64 { return s.Seq + uint64(s.Len) }

// buildSACK appends to blocks the receiver's out-of-order intervals
// (ascending) as at most MaxSACKBlocks blocks, most recent (highest)
// first, as Linux does.
func buildSACK(blocks []SACKBlock, ivs []stream.Interval, cumAck uint64) []SACKBlock {
	for i := len(ivs) - 1; i >= 0 && len(blocks) < MaxSACKBlocks; i-- {
		if ivs[i].End <= cumAck {
			continue
		}
		start := ivs[i].Start
		if start < cumAck {
			start = cumAck
		}
		blocks = append(blocks, SACKBlock{Start: start, End: ivs[i].End})
	}
	return blocks
}
