// Package perf holds the allocation-budget tests that pin the
// per-packet hot paths (wire encode/decode, in-place AEAD, sim timers,
// interval edits, OLIA, the live driver loop, a whole wire+AEAD
// transfer), the event-queue occupancy test (the clock's queues follow
// the packets in flight, not timer re-arms or transfer length) and the
// one sanctioned wall clock for tooling (Stopwatch).
// The speed of the same paths is measured by the repository benchmark
// (bench/, BENCHMARK.json), not here.
//
// The fixtures below are shared by those tests, so every budget is set
// on the same representative packet.
package perf

import (
	"time"

	"mpquic/internal/wire"
)

// SamplePacket builds a representative data packet: an ACK with a few
// ranges (loss recovery in progress), a WINDOW_UPDATE, and a full-MTU
// stream frame — the shape the send path emits while a transfer is in
// flight.
func SamplePacket(data []byte) *wire.Packet {
	return &wire.Packet{
		Header: wire.Header{
			ConnID:       0x1234_5678_9abc_def0,
			Multipath:    true,
			PathID:       1,
			PacketNumber: 10_000,
		},
		LargestAcked: 9_950,
		Frames: []wire.Frame{
			&wire.AckFrame{
				PathID: 1,
				Ranges: []wire.AckRange{
					{Smallest: 9_990, Largest: 10_012},
					{Smallest: 9_970, Largest: 9_985},
					{Smallest: 9_000, Largest: 9_967},
				},
				AckDelay: 3 * time.Millisecond,
			},
			&wire.WindowUpdateFrame{StreamID: 3, Offset: 1 << 24},
			&wire.StreamFrame{StreamID: 3, Offset: 1 << 20, Data: data},
		},
	}
}
