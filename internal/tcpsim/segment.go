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
)

// Wire-size constants.
const (
	// MSS is the maximum TCP payload per segment, chosen so the full
	// datagram matches the QUIC stacks' 1378-byte wire footprint
	// (1350-byte QUIC packet + 28-byte UDP/IP): IPv4 20 + TCP 20 +
	// timestamps 12 => 1326 + 52 = 1378.
	MSS = 1326
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

// Segment is one TCP segment in flight. It implements netem.Payload.
type Segment struct {
	SYN, ACK, FIN bool
	Ctl           CtlType

	Seq     uint64 // first payload byte's sequence number
	Len     int    // payload length (synthetic)
	AckNum  uint64 // cumulative acknowledgment
	Window  uint64 // receive window (bytes beyond AckNum)
	SACK    []SACKBlock
	EchoRTX bool // segment is a retransmission (receiver doesn't care; kept for traces)

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
}

// WireSize implements netem.Payload: headers + options + payload.
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

// buildSACK converts the receiver's out-of-order intervals (ascending)
// into at most MaxSACKBlocks blocks, most recent (highest) first, as
// Linux does.
func buildSACK(ivs []stream.Interval, cumAck uint64) []SACKBlock {
	var blocks []SACKBlock
	for i := len(ivs) - 1; i >= 0 && len(blocks) < MaxSACKBlocks; i-- {
		if ivs[i].End <= cumAck {
			continue
		}
		start := ivs[i].Start
		if start < cumAck {
			start = cumAck
		}
		if blocks == nil {
			blocks = make([]SACKBlock, 0, MaxSACKBlocks)
		}
		blocks = append(blocks, SACKBlock{Start: start, End: ivs[i].End})
	}
	return blocks
}
