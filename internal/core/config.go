// Package core implements Multipath QUIC — the paper's contribution
// (§3): explicit Path IDs in the public header, one packet-number space
// and one congestion controller per path, a path manager driving
// ADD_ADDRESS/PATHS frames, and a lowest-RTT packet scheduler that
// duplicates traffic onto paths whose characteristics are still
// unknown.
//
// Single-path QUIC is the same engine with multipath disabled, exactly
// as the paper's implementation extends quic-go (one codebase, the
// multipath machinery dormant); DefaultSinglePathConfig is that
// configuration.
package core

import (
	"time"

	"mpquic/internal/trace"
	"mpquic/internal/wire"
)

// SchedulerKind selects the packet scheduler (§3, Packet Scheduling).
type SchedulerKind int

const (
	// SchedLowestRTT prefers the lowest-smoothed-RTT path with
	// congestion window space, duplicating onto RTT-less paths — the
	// paper's default scheduler.
	SchedLowestRTT SchedulerKind = iota
	// SchedLowestRTTNoDup is the ablation without the duplication
	// phase: unknown paths get fresh data directly.
	SchedLowestRTTNoDup
	// SchedRoundRobin rotates across available paths — the fragile
	// alternative §3 argues against.
	SchedRoundRobin
	// SchedBLEST is a blocking-estimation scheduler inspired by BLEST
	// (Ferlin et al. [16], cited in §3): it skips a slower path when
	// the data parked there would outlive the send window and block
	// the faster path. An extension beyond the paper's scheduler.
	SchedBLEST
)

func (k SchedulerKind) String() string {
	switch k {
	case SchedLowestRTT:
		return "lowest-rtt"
	case SchedLowestRTTNoDup:
		return "lowest-rtt-nodup"
	case SchedRoundRobin:
		return "round-robin"
	case SchedBLEST:
		return "blest"
	default:
		return "unknown"
	}
}

// CCKind selects the congestion controller.
type CCKind int

const (
	// CCCubic is used by single-path QUIC and TCP in the evaluation.
	CCCubic CCKind = iota
	// CCOlia is the coupled controller used by MPQUIC and MPTCP.
	CCOlia
	// CCReno is a reference controller for tests and ablations.
	CCReno
	// CCLia is the RFC 6356 coupled controller [48] — implemented as
	// the "other multipath congestion control scheme" §3 defers to
	// further study.
	CCLia
)

func (k CCKind) String() string {
	switch k {
	case CCCubic:
		return "cubic"
	case CCOlia:
		return "olia"
	case CCReno:
		return "reno"
	case CCLia:
		return "lia"
	default:
		return "unknown"
	}
}

// Config tunes a connection. The zero value is not usable; start from
// DefaultConfig or DefaultSinglePathConfig.
type Config struct {
	// Multipath enables the MPQUIC extensions. When false the
	// connection is plain QUIC: no Path ID byte, one path, one
	// packet-number space.
	Multipath bool
	// MaxPaths bounds concurrently active paths (including path 0).
	// Zero means 2; plain QUIC clamps it to 1.
	MaxPaths int
	// Scheduler picks the packet scheduler.
	Scheduler SchedulerKind
	// CC picks the congestion controller family.
	CC CCKind

	// StreamWindow and ConnWindow are the flow-control credit granted
	// per stream and per connection (§4.1: 16 MB maximum receive
	// window, for both TCP and QUIC).
	StreamWindow uint64
	ConnWindow   uint64

	// WindowUpdateAllPaths broadcasts WINDOW_UPDATE frames on every
	// active path (§3). Ablation switch.
	WindowUpdateAllPaths bool
	// PathsFrameOnFailure sends a PATHS frame flagging a
	// potentially-failed path so the peer avoids its own RTO during
	// handover (§4.3). Ablation switch.
	PathsFrameOnFailure bool

	// EnableCrypto seals every protected packet with real AES-GCM.
	// When false, packets still pay the AEAD size overhead but skip
	// the cipher work (struct-mode sweeps).
	EnableCrypto bool
	// WireSerialization forces every packet through full
	// encode/decode across the emulated network instead of struct
	// mode. Integration tests use it to prove both modes agree.
	WireSerialization bool
	// AdvertiseAddresses makes the endpoint advertise its non-initial
	// local addresses via ADD_ADDRESS after the handshake (the
	// dual-stack server use case of §3).
	AdvertiseAddresses bool

	// IdleTimeout closes the connection after this long without
	// receiving anything. Zero disables.
	IdleTimeout time.Duration

	// HandshakeSeed seeds the deterministic key exchange.
	HandshakeSeed uint64

	// Tracer receives structured protocol events (qlog-style). Nil
	// disables tracing.
	Tracer trace.Tracer

	// TailReinjection is an extension beyond the paper (§5 future
	// work): when a path has window space but nothing new to send,
	// un-acknowledged stream data outstanding on other paths is
	// duplicated onto it, cutting the lossy-path completion tail.
	// Off by default to stay faithful to the paper's scheduler.
	TailReinjection bool

	// ZeroRTT models Google QUIC's repeat-connection handshake: the
	// client holds a cached server config (represented by the shared
	// HandshakeSeed), derives keys immediately, and places request
	// data in its very first flight. Both endpoints must enable it.
	// Off by default — the paper evaluates the 1-RTT handshake.
	ZeroRTT bool
}

// DefaultConfig returns the paper's MPQUIC configuration.
func DefaultConfig() Config {
	return Config{
		Multipath:            true,
		MaxPaths:             2,
		Scheduler:            SchedLowestRTT,
		CC:                   CCOlia,
		StreamWindow:         16 << 20,
		ConnWindow:           16 << 20,
		WindowUpdateAllPaths: true,
		PathsFrameOnFailure:  true,
		IdleTimeout:          120 * time.Second,
		HandshakeSeed:        1,
	}
}

// DefaultSinglePathConfig returns the plain-QUIC configuration used as
// the paper's single-path baseline (CUBIC, one path).
func DefaultSinglePathConfig() Config {
	c := DefaultConfig()
	c.Multipath = false
	c.MaxPaths = 1
	c.CC = CCCubic
	c.WindowUpdateAllPaths = false
	c.PathsFrameOnFailure = false
	return c
}

// Role distinguishes the connection endpoints.
type Role int

const (
	// RoleClient initiates connections (odd new Path IDs).
	RoleClient Role = iota
	// RoleServer accepts connections (even new Path IDs).
	RoleServer
)

func (r Role) String() string {
	if r == RoleClient {
		return "client"
	}
	return "server"
}

// Stream ID allocation: stream 1 is reserved (crypto in Google QUIC);
// client application streams are 3, 5, 7, ...
const (
	// FirstClientStream is the first client-initiated app stream ID.
	FirstClientStream wire.StreamID = 3
	// FirstServerStream is the first server-initiated app stream ID.
	FirstServerStream wire.StreamID = 2
)
