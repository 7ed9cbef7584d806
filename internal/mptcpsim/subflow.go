// Package mptcpsim models Multipath TCP v0.91 — the paper's multipath
// baseline (§4). It reproduces the MPTCP mechanisms the evaluation
// leans on:
//
//   - each additional subflow needs a full 3-way handshake before
//     carrying data (vs MPQUIC's data-in-first-packet);
//   - data is mapped onto subflows with DSS-style sequence numbers and
//     must be retransmitted in sequence on the same subflow;
//   - the default Linux scheduler (lowest smoothed RTT with window
//     space) drives chunk placement, fed by coarse, Karn-degraded RTT
//     estimates — the ambiguity the paper blames for slow-path bursts;
//   - Opportunistic Retransmission and Penalization (ORP) reinjects
//     stalled data onto the fast path and halves the slow path's
//     window when the connection-level receive window blocks;
//   - a subflow that suffers an RTO with no activity since the last
//     transmission is marked potentially failed and avoided, with its
//     outstanding data reinjected on the remaining subflows;
//   - OLIA coupled congestion control across subflows.
//
// A subflow is an ordinary TCP flow, as in Linux: handshake, loss
// recovery, RTT sampling and acknowledgment policy are tcpsim.Flow's,
// shared with the single-path baseline. This package adds only what
// is MPTCP's.
package mptcpsim

import (
	"time"

	"mpquic/internal/tcpsim"
)

// MSS is the TCP model's segment payload size.
const MSS = tcpsim.MSS

// fullSegment is the wire size of a full data segment: the TCP model's
// headers plus the DSS option every MPTCP segment carries.
var fullSegment = (&tcpsim.Segment{Len: MSS, MP: true}).WireSize()

// rtxChunk queues an in-subflow retransmission with its mapping.
type rtxChunk struct {
	sfStart, sfEnd     uint64
	dataStart, dataEnd uint64
	dataFin            bool
}

// Subflow is one TCP subflow of an MPTCP connection: a TCP flow whose
// bytes carry a DSS mapping into the connection's stream. The mapping
// rides in each of the flow's send records (tcpsim.Record's Data
// fields), so lost data can be reinjected at the connection level.
type Subflow struct {
	*tcpsim.Flow

	rtxQueue    []rtxChunk
	lastPenalty time.Duration

	// potentiallyFailed is Linux MPTCP's PF state: RTO with no
	// activity since the last transmission (§4.3).
	potentiallyFailed bool

	// DataBytesSent counts the stream bytes mapped onto this subflow.
	DataBytesSent uint64
}

// cwndAvailable reports whether a full segment fits the window.
func (sf *Subflow) cwndAvailable() bool { return sf.HasWindow(fullSegment) }

// requeueLocal puts a lost record back onto this subflow's rtx queue —
// MPTCP must retransmit in-sequence on the same subflow (§3: "MPTCP is
// forced to (re)transmit data in sequence over each path"). The whole
// range goes back, even parts the peer already data-acked through a
// reinjection elsewhere: the subflow's own sequence space still has
// the hole, and Linux fills it too.
func (sf *Subflow) requeueLocal(r *tcpsim.Record) {
	sf.rtxQueue = append(sf.rtxQueue, rtxChunk{
		sfStart: r.SeqStart, sfEnd: r.SeqEnd,
		dataStart: r.DataStart, dataEnd: r.DataEnd,
		dataFin: r.DataFin,
	})
	// Counted when queued and again by Flow.Sent when the chunk leaves;
	// the grid artifacts' per-path retransmits pin the double count.
	sf.Stats.Retransmits++
}
