package stream

import (
	"fmt"

	"mpquic/internal/wire"
)

// SendStream produces STREAM frames for one stream, tracking the
// retransmission queue as byte intervals so a lost frame's data can be
// resent in any repacketization, over any path (§3: frames are
// independent of the packets that carry them).
type SendStream struct {
	id wire.StreamID

	// Real-mode payload. nil in synthetic mode.
	data      []byte
	synthetic bool

	writeOffset uint64 // total bytes written by the application
	nextSend    uint64 // frontier of never-sent data
	fin         bool   // application finished writing

	rtx      IntervalSet // lost ranges awaiting retransmission
	acked    IntervalSet // ranges acknowledged
	finSent  bool
	finAcked bool
	finLost  bool
}

// NewSendStream creates an empty send stream.
func NewSendStream(id wire.StreamID) *SendStream {
	return &SendStream{id: id}
}

// Write appends real payload bytes.
func (s *SendStream) Write(p []byte) {
	if s.fin {
		panic("stream: Write after Close")
	}
	if s.synthetic {
		panic("stream: mixing synthetic and real writes")
	}
	s.data = append(s.data, p...)
	s.writeOffset += uint64(len(p))
}

// WriteSynthetic appends n logical bytes without materializing them.
func (s *SendStream) WriteSynthetic(n uint64) {
	if s.fin {
		panic("stream: WriteSynthetic after Close")
	}
	if s.data != nil {
		panic("stream: mixing synthetic and real writes")
	}
	s.synthetic = true
	s.writeOffset += n
}

// Close marks the write side finished (FIN will be sent).
func (s *SendStream) Close() { s.fin = true }

// HasData reports whether the stream has anything to transmit right
// now: retransmissions, unsent data, or an unsent/lost FIN.
func (s *SendStream) HasData() bool {
	if !s.rtx.Empty() {
		return true
	}
	if s.nextSend < s.writeOffset {
		return true
	}
	return s.fin && (!s.finSent || s.finLost)
}

// HasRetransmission reports whether lost data is queued.
func (s *SendStream) HasRetransmission() bool { return !s.rtx.Empty() || s.finLost }

// NextFrame is NextFrameInto building a freshly allocated frame, the
// caller's to keep; it returns nil when nothing can be produced.
func (s *SendStream) NextFrame(maxFrameSize int, newDataAllowance uint64) (*wire.StreamFrame, uint64) {
	f := new(wire.StreamFrame)
	used, ok := s.NextFrameInto(f, maxFrameSize, newDataAllowance)
	if !ok {
		return nil, 0
	}
	return f, used
}

// NextFrameInto builds the next STREAM frame in *dst, which the caller
// owns: the stream keeps no reference to it. maxFrameSize bounds the
// encoded frame size; newDataAllowance bounds how many *new* (never
// sent) bytes may be included per flow control. Retransmitted bytes
// consume no allowance — their credit was spent on first transmission.
// It returns the number of new flow-controlled bytes consumed, and false,
// leaving *dst unspecified, when nothing can be produced.
//
//mpq:noescape
func (s *SendStream) NextFrameInto(dst *wire.StreamFrame, maxFrameSize int, newDataAllowance uint64) (uint64, bool) {
	*dst = wire.StreamFrame{StreamID: s.id}
	// Retransmissions first: they unblock the receiver's reassembly.
	if !s.rtx.Empty() {
		dst.Offset = s.rtx.Intervals()[0].Start
		maxLen := dst.MaxStreamDataLen(maxFrameSize)
		if maxLen <= 0 {
			return 0, false
		}
		s.fill(dst, s.rtx.Pop(uint64(maxLen)))
		return 0, true
	}
	if s.nextSend < s.writeOffset && newDataAllowance > 0 {
		dst.Offset = s.nextSend
		maxLen := uint64(dst.MaxStreamDataLen(maxFrameSize))
		if maxLen == 0 {
			return 0, false
		}
		n := s.writeOffset - s.nextSend
		if n > maxLen {
			n = maxLen
		}
		if n > newDataAllowance {
			n = newDataAllowance
		}
		iv := Interval{s.nextSend, s.nextSend + n}
		s.nextSend = iv.End
		s.fill(dst, iv)
		return n, true
	}
	// A bare FIN (all data sent, FIN pending or lost).
	if s.fin && s.nextSend == s.writeOffset && (!s.finSent || s.finLost) {
		s.finSent = true
		s.finLost = false
		dst.Offset, dst.Fin = s.writeOffset, true
		return 0, true
	}
	return 0, false
}

// fill gives f, which has its stream and offset, the bytes of iv and the
// FIN when iv ends the stream.
func (s *SendStream) fill(f *wire.StreamFrame, iv Interval) {
	if s.synthetic {
		f.DataLen = int(iv.Len())
	} else {
		f.Data = s.data[iv.Start:iv.End]
	}
	if s.fin && iv.End == s.writeOffset {
		f.Fin = true
		s.finSent = true
		s.finLost = false
	}
}

// OnFrameAcked records delivery of a previously sent frame.
func (s *SendStream) OnFrameAcked(offset uint64, n int, fin bool) {
	s.acked.Add(offset, offset+uint64(n))
	// Data that was queued for retransmission but acked via another
	// copy (a duplicate, or the original acked late) needn't be resent.
	s.rtx.Remove(offset, offset+uint64(n))
	if fin {
		s.finAcked = true
		s.finLost = false
	}
}

// OnFrameLost queues a lost frame's data for retransmission, skipping
// ranges that were acknowledged through another copy.
func (s *SendStream) OnFrameLost(offset uint64, n int, fin bool) {
	s.rtx.AddMissing(offset, offset+uint64(n), &s.acked)
	if fin && !s.finAcked {
		s.finLost = true
	}
}

// UnsentBytes reports written bytes never transmitted yet.
func (s *SendStream) UnsentBytes() uint64 { return s.writeOffset - s.nextSend }

func (s *SendStream) String() string {
	return fmt.Sprintf("sendStream(%d, written=%d, next=%d, rtx=%v)", s.id, s.writeOffset, s.nextSend, s.rtx)
}
