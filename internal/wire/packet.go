package wire

import "errors"

// Overhead constants for byte accounting. The emulator charges each
// datagram the transport framing a real deployment would pay.
const (
	// UDPIPv4Overhead is the IPv4 (20) + UDP (8) framing in bytes.
	UDPIPv4Overhead = 28
	// AEADOverhead is the authentication tag appended to the protected
	// payload of every non-handshake packet (AES-128-GCM).
	AEADOverhead = 16
	// MaxPacketSize is the largest QUIC packet (header + payload +
	// tag) this implementation emits, chosen so the full datagram fits
	// the emulator MTU with IPv4/UDP framing.
	MaxPacketSize = 1350
)

// Packet is one QUIC packet: a public header plus frames. Packets
// traverse the emulator as datagram payloads in struct mode.
type Packet struct {
	Header Header
	Frames []Frame
	// LargestAcked feeds packet-number truncation on encode: the
	// largest packet number the peer acknowledged on this path when
	// the packet was built.
	LargestAcked PacketNumber

	// own and lent serve a Packet used as a struct-mode carrier
	// (carrier.go): the storage Fill copies ACK and STREAM frames into,
	// and the carrier this packet is while its PacketPool has it out on
	// loan, nil when none.
	own  FrameArena
	lent *carrier
}

// IsRetransmittable reports whether any frame needs loss recovery.
func (p *Packet) IsRetransmittable() bool { return AnyRetransmittable(p.Frames) }

// AnyRetransmittable is Packet.IsRetransmittable for a frame list that
// is not a packet yet.
func AnyRetransmittable(frames []Frame) bool {
	for _, f := range frames {
		if f.Retransmittable() {
			return true
		}
	}
	return false
}

// Sealer protects a packet payload (AEAD seal/open). The wire package
// defines the interface; internal/crypto provides the implementation.
type Sealer interface {
	// SealTo encrypts plaintext bound to (path, pn, header) and appends
	// the ciphertext (plaintext length + AEADOverhead) to dst, in the
	// manner of cipher.AEAD. To seal a payload over itself pass
	// plaintext[:0] (or any slice ending where plaintext starts) with
	// AEADOverhead bytes of spare capacity behind the plaintext; header
	// must not overlap the output.
	SealTo(dst []byte, path PathID, pn PacketNumber, header, plaintext []byte) []byte
	// OpenTo reverses SealTo, appending the plaintext to dst;
	// ciphertext[:0] decrypts in place. On a forgery it returns an
	// error and the contents of the output region are unspecified.
	OpenTo(dst []byte, path PathID, pn PacketNumber, header, ciphertext []byte) ([]byte, error)
}

// EncodeTo appends the serialized packet to buf and returns the
// extended buffer, allocating only if buf lacks capacity: into a reused
// or lent buffer with room for a full packet the encode is
// allocation-free. A nil sealer leaves the payload in cleartext but
// still appends AEADOverhead filler bytes on protected packets so sizes
// stay identical in both modes.
//
//mpq:noescape
func (p *Packet) EncodeTo(buf []byte, sealer Sealer) []byte {
	start := len(buf)
	buf = p.Header.Append(buf, p.LargestAcked)
	hdrEnd := len(buf)
	for _, f := range p.Frames {
		buf = f.Append(buf)
	}
	if p.Header.Handshake {
		return buf
	}
	if sealer == nil {
		for i := 0; i < AEADOverhead; i++ {
			buf = append(buf, 0x5A)
		}
		return buf
	}
	// Seal the frames over themselves: the ciphertext lands where the
	// plaintext was and the tag behind it (a full-packet buffer has room).
	return sealer.SealTo(buf[:hdrEnd], p.Header.PathID, p.Header.PacketNumber, buf[start:hdrEnd], buf[hdrEnd:])
}

// Decode parses a serialized packet. largestReceived expands the
// truncated packet number (pass InvalidPacketNumber on fresh paths). A
// nil sealer expects the cleartext-with-filler format EncodeTo with a
// nil sealer produces. Decode parses a private copy of b, so b is left
// untouched and the frames own their payload bytes: b may be reused
// freely after Decode returns.
func Decode(b []byte, largestReceived PacketNumber, sealer Sealer) (*Packet, error) {
	return DecodeBorrowed(append([]byte(nil), b...), largestReceived, sealer)
}

// DecodeBorrowed is DecodeInto into a fresh Packet and FrameArena: one
// allocation holds both, with room for four frames, one ACK and one
// STREAM frame, the shape of a data packet. Like DecodeInto it
// borrows b: a sealed payload is opened in place, overwriting b, and
// STREAM and HANDSHAKE frame payloads alias b. The caller must own b
// and fully consume the frames (or copy what it keeps) before reusing
// or pooling it.
func DecodeBorrowed(b []byte, largestReceived PacketNumber, sealer Sealer) (*Packet, error) {
	d := new(struct {
		p       Packet
		arena   FrameArena
		frames  [4]Frame
		ack     [1]AckFrame
		streams [1]StreamFrame
	})
	d.p.Frames = d.frames[:0]
	d.arena.acks, d.arena.streams = d.ack[:], d.streams[:]
	if err := DecodeInto(&d.p, &d.arena, b, largestReceived, sealer); err != nil {
		return nil, err
	}
	return &d.p, nil
}

// FrameArena is storage for the STREAM and ACK frames of one packet at
// a time — the steady-state traffic — as values in two arrays reused
// from one packet to the next, ACK frames keeping the capacity of their
// Ranges. DecodeInto parses into a connection's; a struct-mode carrier
// has its own for Fill to copy into (carrier.go). The zero value is
// ready to use.
type FrameArena struct {
	streams  []StreamFrame
	acks     []AckFrame
	nStreams int
	nAcks    int
}

// reset makes the whole arena available again.
func (s *FrameArena) reset() { s.nStreams, s.nAcks = 0, 0 }

// streamFrame returns the next free STREAM frame of the arena. Growing
// the arena moves it, which is harmless: frames already handed out stay
// valid in the old array, and the next packet starts over in the new
// one.
func (s *FrameArena) streamFrame() *StreamFrame {
	if s.nStreams == len(s.streams) {
		s.streams = append(s.streams, StreamFrame{})
	}
	s.nStreams++
	return &s.streams[s.nStreams-1]
}

// ackFrame is streamFrame for ACK frames.
func (s *FrameArena) ackFrame() *AckFrame {
	if s.nAcks == len(s.acks) {
		s.acks = append(s.acks, AckFrame{})
	}
	s.nAcks++
	return &s.acks[s.nAcks-1]
}

// DecodeInto is the one packet parser and the receive hot path: it
// parses b into p, reusing the backing array of p.Frames and taking
// STREAM and ACK frames from scratch, which is required, so a
// connection that keeps one Packet and one FrameArena decodes its
// steady-state traffic without allocating. It borrows b: a sealed
// payload is opened in place and frame payloads alias b. p, its frames
// and scratch are valid until the next DecodeInto on the same p or
// scratch, and no longer than b; on error p holds no frames.
//
//mpq:noescape
func DecodeInto(p *Packet, scratch *FrameArena, b []byte, largestReceived PacketNumber, sealer Sealer) error {
	scratch.reset()
	p.Header, p.Frames, p.LargestAcked = Header{}, p.Frames[:0], 0
	hdr, hdrLen, err := ParseHeader(b, largestReceived)
	if err != nil {
		return err
	}
	payload := b[hdrLen:]
	if !hdr.Handshake {
		if sealer != nil {
			payload, err = sealer.OpenTo(payload[:0], hdr.PathID, hdr.PacketNumber, b[:hdrLen], payload)
			if err != nil {
				return err
			}
		} else {
			if len(payload) < AEADOverhead {
				return ErrTruncated
			}
			payload = payload[:len(payload)-AEADOverhead]
		}
	}
	for len(payload) > 0 {
		f, n, err := parseFrame(scratch, payload)
		if err == nil && n == 0 {
			err = errZeroLengthFrame
		}
		if err != nil {
			p.Frames = p.Frames[:0]
			return err
		}
		p.Frames = append(p.Frames, f)
		payload = payload[n:]
	}
	p.Header = hdr
	return nil
}

// errZeroLengthFrame guards the frame loop against a parser that
// consumes nothing.
var errZeroLengthFrame = errors.New("wire: zero-length frame parse")
