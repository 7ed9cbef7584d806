package recovery

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mpquic/internal/perf"
	"mpquic/internal/stream"
	"mpquic/internal/wire"
)

// intervalModel is the AckManager as it was before it kept its ranges in
// frame form: the received PNs as a stream.IntervalSet of [pn, pn+1)
// intervals, plus a floor below which forgotten PNs count as received,
// and every range rebuilt from the set on every ACK. The manager must
// answer every question the way it does.
type intervalModel struct {
	pathID          wire.PathID
	received        stream.IntervalSet
	floor           wire.PacketNumber
	largestReceived wire.PacketNumber
	largestRecvTime time.Duration
	hasReceived     bool

	unackedRetransmittable int
	ackQueued              bool
	ackDeadline            time.Duration
}

func (a *intervalModel) isDuplicate(pn wire.PacketNumber) bool {
	return pn < a.floor || a.received.Contains(uint64(pn), uint64(pn)+1)
}

func (a *intervalModel) onPacketReceived(pn wire.PacketNumber, retransmittable bool, now time.Duration) bool {
	if a.isDuplicate(pn) {
		return false
	}
	a.received.Add(uint64(pn), uint64(pn)+1)
	if ivs := a.received.Intervals(); len(ivs) > wire.MaxAckRanges {
		a.floor = wire.PacketNumber(ivs[0].End)
		a.received.Remove(0, ivs[0].End)
	}
	if !a.hasReceived || pn > a.largestReceived {
		a.largestReceived = pn
		a.largestRecvTime = now
		a.hasReceived = true
	}
	if retransmittable {
		a.unackedRetransmittable++
		if a.unackedRetransmittable >= AckEveryN {
			a.ackQueued = true
		} else if a.ackDeadline == 0 {
			a.ackDeadline = now + MaxAckDelay
		}
		if pn != a.largestReceived || len(a.received.Intervals()) > 1 {
			a.ackQueued = true
		}
	}
	return true
}

func (a *intervalModel) forceAck() {
	if a.hasReceived {
		a.ackQueued = true
	}
}

func (a *intervalModel) shouldSendAck(now time.Duration) bool {
	return a.ackQueued || a.ackDeadline != 0 && now >= a.ackDeadline
}

func (a *intervalModel) pendingDeadline() time.Duration {
	if a.ackQueued {
		return 0
	}
	return a.ackDeadline
}

func (a *intervalModel) buildAckInto(f *wire.AckFrame, now time.Duration) bool {
	if !a.hasReceived {
		return false
	}
	ivs := a.received.Intervals()
	ranges := make([]wire.AckRange, 0, len(ivs))
	for i := len(ivs) - 1; i >= 0; i-- {
		ranges = append(ranges, wire.AckRange{
			Smallest: wire.PacketNumber(ivs[i].Start),
			Largest:  wire.PacketNumber(ivs[i].End - 1),
		})
	}
	delay := now - a.largestRecvTime
	if delay < 0 {
		delay = 0
	}
	a.ackQueued = false
	a.ackDeadline = 0
	a.unackedRetransmittable = 0
	*f = wire.AckFrame{PathID: a.pathID, Ranges: ranges, AckDelay: delay}
	return true
}

// runAckOps drives an AckManager and the interval model through ops,
// two bytes per step: kind, then an argument v. kind's low three bits
// advance the clock by 0-7 ms (enough to pass MaxAckDelay now and then),
// bits 3-4 both set make the packet not retransmittable, and its top
// three bits pick the step: a PN in order (0-2), one past a hole of 1-3
// (3), one up to 256 below the next in order — a fill-in or a duplicate
// (4), one anywhere below it (5), an ACK built (6), or ForceAck (7).
// After every step the two must agree on everything the manager reports;
// after every build, on the frame, and the size BuildAckInto returns must
// be the frame's EncodedSize. It returns the most ranges held at once.
func runAckOps(ops []byte) (maxHeld int, err error) {
	a, m := NewAckManager(3), &intervalModel{pathID: 3}
	var (
		next      wire.PacketNumber
		now       time.Duration
		got, want wire.AckFrame
	)
	for step := 0; len(ops) >= 2; ops, step = ops[2:], step+1 {
		kind, v := ops[0], wire.PacketNumber(ops[1])
		now += time.Duration(kind&7) * time.Millisecond
		retransmittable := kind&0x18 != 0x18
		pn := wire.InvalidPacketNumber
		switch op := kind >> 5; {
		case op <= 2:
			pn = next
		case op == 3:
			pn = next + 1 + v%3
		case op == 4:
			pn = next - min(next, 1+v)
		case op == 5:
			pn = next * v / 256
		case op == 6:
			size := a.BuildAckInto(&got, now)
			if ok := m.buildAckInto(&want, now); !ok {
				if size != 0 {
					return maxHeld, fmt.Errorf("step %d: built a %d-byte ACK with nothing received", step, size)
				}
				break
			}
			if !reflect.DeepEqual(got, want) {
				return maxHeld, fmt.Errorf("step %d: built path %d, delay %v, %d ranges from %v; model %d, %v, %d from %v", step,
					got.PathID, got.AckDelay, len(got.Ranges), got.Ranges[0], want.PathID, want.AckDelay, len(want.Ranges), want.Ranges[0])
			}
			if size != got.EncodedSize() {
				return maxHeld, fmt.Errorf("step %d: BuildAckInto says %d bytes, EncodedSize %d (%d ranges)", step, size, got.EncodedSize(), len(got.Ranges))
			}
		default:
			a.ForceAck()
			m.forceAck()
		}
		if pn != wire.InvalidPacketNumber {
			isNew, modelNew := a.OnPacketReceived(pn, retransmittable, now), m.onPacketReceived(pn, retransmittable, now)
			if isNew != modelNew {
				return maxHeld, fmt.Errorf("step %d: packet %d new=%v, model %v", step, pn, isNew, modelNew)
			}
			next = max(next, pn+1)
			for probe := pn - min(pn, 2); probe <= pn+2; probe++ {
				if a.IsDuplicate(probe) != m.isDuplicate(probe) {
					return maxHeld, fmt.Errorf("step %d: after packet %d, IsDuplicate(%d) = %v, model %v", step, pn, probe, a.IsDuplicate(probe), m.isDuplicate(probe))
				}
			}
		}
		if l, ok := a.LargestReceived(); l != m.largestReceived || ok != m.hasReceived {
			return maxHeld, fmt.Errorf("step %d: LargestReceived %d, %v; model %d, %v", step, l, ok, m.largestReceived, m.hasReceived)
		}
		if a.Due(now) != m.shouldSendAck(now) || a.Deadline() != m.pendingDeadline() || a.HasACKablePackets() != m.hasReceived {
			return maxHeld, fmt.Errorf("step %d at %v: Due %v, Deadline %v, HasACKablePackets %v; model %v, %v, %v", step, now,
				a.Due(now), a.Deadline(), a.HasACKablePackets(), m.shouldSendAck(now), m.pendingDeadline(), m.hasReceived)
		}
		maxHeld = max(maxHeld, len(a.held()))
		if maxHeld > wire.MaxAckRanges {
			return maxHeld, fmt.Errorf("step %d: %d ranges held", step, maxHeld)
		}
	}
	return maxHeld, nil
}

// ackOpsSeed is a fixed sequence that opens far more than
// wire.MaxAckRanges holes, then fills in, duplicates and reaches below
// the floor while ACKs are built; it seeds the fuzzer.
func ackOpsSeed() []byte {
	var ops []byte
	for i := 0; i < 600; i++ {
		ops = append(ops, 3<<5|1, 0, 6<<5, 0) // every other PN, an ACK each
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 2000; i++ {
		ops = append(ops, byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return ops
}

// TestAckManagerMatchesIntervalModel: PN sequences with holes,
// reordering, duplicates and more than wire.MaxAckRanges holes give the
// same answers, and the same ACK frames, as the interval-set manager.
func TestAckManagerMatchesIntervalModel(t *testing.T) {
	if held, err := runAckOps(ackOpsSeed()); err != nil {
		t.Fatalf("seed sequence: %v", err)
	} else if held != wire.MaxAckRanges {
		t.Fatalf("seed sequence held at most %d ranges, want it to reach %d", held, wire.MaxAckRanges)
	}
	rng := rand.New(rand.NewSource(3))
	capped := 0
	for i := 0; i < 60; i++ {
		ops := make([]byte, 2*(1+rng.Intn(8000)))
		rng.Read(ops)
		held, err := runAckOps(ops)
		if err != nil {
			t.Fatalf("sequence %d: %v", i, err)
		}
		if held == wire.MaxAckRanges {
			capped++
		}
	}
	if capped == 0 {
		t.Fatalf("no random sequence reached %d ranges", wire.MaxAckRanges)
	}
}

// FuzzAckManager lets the fuzzer pick the packet numbers.
func FuzzAckManager(f *testing.F) {
	f.Add(ackOpsSeed())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if _, err := runAckOps(ops); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAckCostIndependentOfRanges: receiving a packet and building and
// sizing the ACK that follows costs about the same with 256 ranges held
// as with one. Sizing the frame by walking its ranges on every ACK, as
// the sender did before, reads about 30x here.
func TestAckCostIndependentOfRanges(t *testing.T) {
	if testing.Short() || perf.RaceEnabled {
		t.Skip("timing comparison")
	}
	perAck := func(holes int) time.Duration {
		best := time.Duration(1 << 62)
		for rep := 0; rep < 5; rep++ {
			a := NewAckManager(0)
			pn := wire.PacketNumber(0)
			for i := 0; i < holes; i++ {
				a.OnPacketReceived(pn, true, 0)
				pn += 2
			}
			var f wire.AckFrame
			const acks = 20000
			size := 0
			start := time.Now()
			for i := 0; i < acks; i++ {
				a.OnPacketReceived(pn, true, 0)
				pn++
				size += a.BuildAckInto(&f, time.Millisecond)
			}
			if d := time.Since(start) / acks; d < best {
				best = d
			}
			if len(f.Ranges) != max(holes, 1) || size == 0 {
				t.Fatalf("%d ranges and %d bytes built, want %d ranges", len(f.Ranges), size, max(holes, 1))
			}
		}
		return best
	}
	one, full := perAck(0), perAck(wire.MaxAckRanges)
	t.Logf("per ACK: %v at 1 range, %v at %d", one, full, wire.MaxAckRanges)
	if full > 6*one {
		t.Fatalf("per-ACK cost grows with the ranges held: %v at 1 range, %v at %d", one, full, wire.MaxAckRanges)
	}
}
