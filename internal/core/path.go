package core

import (
	"time"

	"mpquic/internal/cc"
	"mpquic/internal/netem"
	"mpquic/internal/recovery"
	"mpquic/internal/rtt"
	"mpquic/internal/wire"
)

// Path is one unidirectional-pair flow of a connection: a (local,
// remote) address pair with its own packet-number space, RTT estimator,
// ack state and congestion controller (§3, Fig. 1).
type Path struct {
	ID     wire.PathID
	Local  netem.Addr
	Remote netem.Addr

	space  *recovery.Space
	ackMgr *recovery.AckManager
	est    *rtt.Estimator
	cc     cc.Controller

	// potentiallyFailed is the paper's PF state (§4.3): set after an
	// RTO fires with no network activity since the last transmission,
	// cleared when data is acknowledged on the path. The scheduler
	// skips PF paths unless every path is PF.
	potentiallyFailed bool
	// remotePF mirrors the peer's PF declaration from a PATHS frame.
	remotePF bool

	// lastRetransmittableSent and lastAckProgress anchor the RTO
	// deadline: the timer restarts on acknowledgment progress, so a
	// window's worth of in-flight data behind a bufferbloated queue
	// does not fire spurious timeouts while acks are still arriving.
	lastRetransmittableSent time.Duration
	lastAckProgress         time.Duration

	// ctrl queues frames that must leave on this specific path
	// (per-path WINDOW_UPDATE copies, PATHS frames, acks ride along
	// separately).
	ctrl []wire.Frame
	// ackFrame is the ACK scratch (see buildAck).
	ackFrame wire.AckFrame

	// Stats
	SentPackets uint64
	SentBytes   uint64
	RecvPackets uint64
	RecvBytes   uint64
	AckedBytes  uint64
}

func newPath(id wire.PathID, local, remote netem.Addr, est *rtt.Estimator, ctrl cc.Controller) *Path {
	return &Path{
		ID:     id,
		Local:  local,
		Remote: remote,
		space:  recovery.NewSpace(est),
		ackMgr: recovery.NewAckManager(id),
		est:    est,
		cc:     ctrl,
	}
}

// RTT returns the path's estimator.
func (p *Path) RTT() *rtt.Estimator { return p.est }

// CC returns the path's congestion controller.
func (p *Path) CC() cc.Controller { return p.cc }

// PotentiallyFailed reports the local PF state.
func (p *Path) PotentiallyFailed() bool { return p.potentiallyFailed }

// RemotePF reports whether the peer flagged this path as failed.
func (p *Path) RemotePF() bool { return p.remotePF }

// cwndAvailable reports whether size more bytes fit the window.
func (p *Path) cwndAvailable(size int) bool {
	return p.space.BytesInFlight()+size <= p.cc.Cwnd()
}

// queueCtrl appends a frame to the path-pinned control queue.
func (p *Path) queueCtrl(f wire.Frame) { p.ctrl = append(p.ctrl, f) }

// rtoBase anchors the retransmission timer at the later of the oldest
// outstanding packet's send time and the last ack progress. Anchoring
// at the oldest (not newest) transmission means continued sending on a
// silent path cannot defer its own timeout — a blackholed path is
// detected one RTO after its acks stop.
func (p *Path) rtoBase() time.Duration {
	base := p.lastRetransmittableSent
	if t, ok := p.space.OldestUnackedSentTime(); ok {
		base = t
	}
	if p.lastAckProgress > base {
		return p.lastAckProgress
	}
	return base
}
