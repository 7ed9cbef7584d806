package wire

import (
	"fmt"
	"time"
)

// FrameType tags each frame on the wire.
type FrameType byte

// Frame type codes. The numbering loosely follows Google QUIC with the
// multipath additions (ADD_ADDRESS, PATHS) taking unused codepoints.
const (
	TypePadding         FrameType = 0x00
	TypeConnectionClose FrameType = 0x02
	TypeWindowUpdate    FrameType = 0x04
	TypePing            FrameType = 0x07
	TypeAddAddress      FrameType = 0x10
	TypePaths           FrameType = 0x11
	TypeHandshake       FrameType = 0x18
	TypeAck             FrameType = 0x40
	TypeStream          FrameType = 0x80
)

// StreamID identifies a QUIC stream. Stream 1 carries the (emulated)
// crypto handshake, like Google QUIC; application data starts at 3 for
// client-initiated streams.
type StreamID uint64

// Frame is one control or data unit carried inside a packet. Frames are
// independent of the packets that contain them: on retransmission a
// frame may travel in a new packet, on a different path (§3).
type Frame interface {
	// EncodedSize is the exact number of bytes Append will add.
	EncodedSize() int
	// Append serializes the frame.
	Append(b []byte) []byte
	// Retransmittable reports whether loss of the containing packet
	// must trigger retransmission of this frame's content.
	Retransmittable() bool
}

// PaddingFrame fills space (N bytes of zero).
type PaddingFrame struct{ Length int }

func (f *PaddingFrame) EncodedSize() int      { return f.Length }
func (f *PaddingFrame) Retransmittable() bool { return false }
func (f *PaddingFrame) Append(b []byte) []byte {
	for i := 0; i < f.Length; i++ {
		b = append(b, 0)
	}
	return b
}

// PingFrame elicits an acknowledgment.
type PingFrame struct{}

func (f *PingFrame) EncodedSize() int       { return 1 }
func (f *PingFrame) Retransmittable() bool  { return true }
func (f *PingFrame) Append(b []byte) []byte { return append(b, byte(TypePing)) }

// StreamFrame carries stream data. The (StreamID, Offset) pair lets the
// receiver reorder data received over different paths without any
// additional multipath sequence number (§3).
type StreamFrame struct {
	StreamID StreamID
	Offset   uint64
	Data     []byte
	// DataLen is used when Data is nil (struct-mode fast path): the
	// frame behaves as if it carried DataLen bytes.
	DataLen int
	Fin     bool
}

// Len returns the stream payload length.
func (f *StreamFrame) Len() int {
	if f.Data != nil {
		return len(f.Data)
	}
	return f.DataLen
}

func (f *StreamFrame) Retransmittable() bool { return true }

func (f *StreamFrame) EncodedSize() int {
	return 1 + VarintLen(uint64(f.StreamID)) + VarintLen(f.Offset) +
		VarintLen(uint64(f.Len())) + f.Len()
}

func (f *StreamFrame) Append(b []byte) []byte {
	t := byte(TypeStream)
	if f.Fin {
		t |= 0x01
	}
	b = append(b, t)
	b = AppendVarint(b, uint64(f.StreamID))
	b = AppendVarint(b, f.Offset)
	b = AppendVarint(b, uint64(f.Len()))
	if f.Data != nil {
		return append(b, f.Data...)
	}
	for n := f.DataLen; n > 0; n -= len(filler) {
		b = append(b, filler[:min(n, len(filler))]...)
	}
	return b
}

// filler is the stand-in payload of a STREAM frame that carries only a
// length (nil Data): DataLen bytes of 0xAA, appended a slice at a time.
var filler = func() (f [1500]byte) {
	for i := range f {
		f[i] = 0xAA
	}
	return f
}()

// MaxStreamDataLen reports how many stream-payload bytes fit when the
// frame must not exceed budget encoded bytes.
func (f *StreamFrame) MaxStreamDataLen(budget int) int {
	overhead := 1 + VarintLen(uint64(f.StreamID)) + VarintLen(f.Offset)
	// Length varint grows with the payload; iterate the fixed point.
	for l := budget - overhead - 1; l >= 0; l-- {
		if overhead+VarintLen(uint64(l))+l <= budget {
			return l
		}
	}
	return 0
}

// WindowUpdateFrame raises a flow-control limit. StreamID 0 addresses
// the connection-level window. MPQUIC broadcasts these frames on every
// active path to dodge receive-buffer head-of-line blocking (§3).
type WindowUpdateFrame struct {
	StreamID StreamID // 0 = connection level
	Offset   uint64   // new absolute byte limit
}

func (f *WindowUpdateFrame) Retransmittable() bool { return true }
func (f *WindowUpdateFrame) EncodedSize() int {
	return 1 + VarintLen(uint64(f.StreamID)) + VarintLen(f.Offset)
}
func (f *WindowUpdateFrame) Append(b []byte) []byte {
	b = append(b, byte(TypeWindowUpdate))
	b = AppendVarint(b, uint64(f.StreamID))
	b = AppendVarint(b, f.Offset)
	return b
}

// AddAddressFrame advertises one local address to the peer, enabling
// e.g. a dual-stack server to expose its IPv6 address over an
// IPv4-initiated connection (§3). Being encrypted and authenticated it
// avoids MPTCP's ADD_ADDR security woes.
type AddAddressFrame struct {
	AddrIndex uint8
	Address   string
}

func (f *AddAddressFrame) Retransmittable() bool { return true }
func (f *AddAddressFrame) EncodedSize() int {
	return 1 + 1 + VarintLen(uint64(len(f.Address))) + len(f.Address)
}
func (f *AddAddressFrame) Append(b []byte) []byte {
	b = append(b, byte(TypeAddAddress), f.AddrIndex)
	b = AppendVarint(b, uint64(len(f.Address)))
	return append(b, f.Address...)
}

// PathInfo is one entry of a PATHS frame.
type PathInfo struct {
	PathID PathID
	// PotentiallyFailed is set when the sender saw an RTO on the path
	// with no activity since — the signal that lets the peer skip its
	// own RTO during handover (§4.3).
	PotentiallyFailed bool
	// SRTT is the sender's smoothed RTT estimate for the path.
	SRTT time.Duration
}

// PathsFrame gives the peer a global view of the sender's active paths
// and their performance (§3, Path Management).
type PathsFrame struct {
	Paths []PathInfo
}

func (f *PathsFrame) Retransmittable() bool { return true }
func (f *PathsFrame) EncodedSize() int {
	n := 1 + VarintLen(uint64(len(f.Paths)))
	for _, p := range f.Paths {
		n += 1 + 1 + VarintLen(uint64(p.SRTT/time.Microsecond))
	}
	return n
}
func (f *PathsFrame) Append(b []byte) []byte {
	b = append(b, byte(TypePaths))
	b = AppendVarint(b, uint64(len(f.Paths)))
	for _, p := range f.Paths {
		var flags byte
		if p.PotentiallyFailed {
			flags |= 0x01
		}
		b = append(b, byte(p.PathID), flags)
		b = AppendVarint(b, uint64(p.SRTT/time.Microsecond))
	}
	return b
}

// ConnectionCloseFrame terminates the connection.
type ConnectionCloseFrame struct {
	ErrorCode uint32
	Reason    string
}

func (f *ConnectionCloseFrame) Retransmittable() bool { return true }
func (f *ConnectionCloseFrame) EncodedSize() int {
	return 1 + 4 + VarintLen(uint64(len(f.Reason))) + len(f.Reason)
}
func (f *ConnectionCloseFrame) Append(b []byte) []byte {
	b = append(b, byte(TypeConnectionClose))
	b = appendUint32(b, f.ErrorCode)
	b = AppendVarint(b, uint64(len(f.Reason)))
	return append(b, f.Reason...)
}

// HandshakeMessageType labels the emulated crypto handshake messages.
type HandshakeMessageType uint8

// Handshake message types of the 1-RTT QUIC-crypto-style exchange.
const (
	HandshakeCHLO HandshakeMessageType = 1 // client hello (with key share)
	HandshakeSHLO HandshakeMessageType = 2 // server hello (completes keys)
	// HandshakeCHLO0RTT is a client hello under a cached server
	// config: the client already derived keys and may attach 0-RTT
	// application data in the same flight.
	HandshakeCHLO0RTT HandshakeMessageType = 3
)

// HandshakeFrame carries the emulated crypto handshake. Its payload
// stands in for the CHLO/SHLO blobs of QUIC crypto (§2: a QUIC
// connection starts with a 1-RTT secure handshake).
type HandshakeFrame struct {
	Message HandshakeMessageType
	Payload []byte
}

func (f *HandshakeFrame) Retransmittable() bool { return true }
func (f *HandshakeFrame) EncodedSize() int {
	return 1 + 1 + VarintLen(uint64(len(f.Payload))) + len(f.Payload)
}
func (f *HandshakeFrame) Append(b []byte) []byte {
	b = append(b, byte(TypeHandshake), byte(f.Message))
	b = AppendVarint(b, uint64(len(f.Payload)))
	return append(b, f.Payload...)
}

// parseFrame decodes the frame at the front of b, returning it and the
// bytes consumed. STREAM and HANDSHAKE payloads alias b. STREAM and ACK
// frames — the steady-state traffic — are taken from scratch; the rare
// control frames are freshly allocated.
func parseFrame(scratch *FrameArena, b []byte) (Frame, int, error) {
	if len(b) == 0 {
		return nil, 0, ErrTruncated
	}
	t := b[0]
	switch {
	case t&byte(TypeStream) != 0:
		f := scratch.streamFrame()
		n, err := parseStreamFrame(f, b)
		if err != nil {
			return nil, 0, err
		}
		return f, n, nil
	case t&byte(TypeAck) != 0:
		f := scratch.ackFrame()
		n, err := parseAckFrame(f, b)
		if err != nil {
			return nil, 0, err
		}
		return f, n, nil
	}
	switch FrameType(t) {
	case TypePadding:
		n := 0
		for n < len(b) && b[n] == 0 {
			n++
		}
		return &PaddingFrame{Length: n}, n, nil
	case TypePing:
		return &PingFrame{}, 1, nil
	case TypeWindowUpdate:
		off := 1
		sid, n, err := ConsumeVarint(b[off:])
		if err != nil {
			return nil, 0, frameErr("WINDOW_UPDATE", err)
		}
		off += n
		lim, n, err := ConsumeVarint(b[off:])
		if err != nil {
			return nil, 0, frameErr("WINDOW_UPDATE", err)
		}
		off += n
		return &WindowUpdateFrame{StreamID: StreamID(sid), Offset: lim}, off, nil
	case TypeAddAddress:
		if len(b) < 2 {
			return nil, 0, frameErr("ADD_ADDRESS", ErrTruncated)
		}
		off := 2
		l, n, err := ConsumeVarint(b[off:])
		if err != nil {
			return nil, 0, frameErr("ADD_ADDRESS", err)
		}
		off += n
		s, n, err := consumeBytes(b[off:], int(l))
		if err != nil {
			return nil, 0, frameErr("ADD_ADDRESS", err)
		}
		off += n
		return &AddAddressFrame{AddrIndex: b[1], Address: string(s)}, off, nil
	case TypePaths:
		off := 1
		cnt, n, err := ConsumeVarint(b[off:])
		if err != nil {
			return nil, 0, frameErr("PATHS", err)
		}
		off += n
		if cnt > 256 {
			return nil, 0, fmt.Errorf("wire: PATHS frame with %d entries", cnt)
		}
		f := &PathsFrame{Paths: make([]PathInfo, 0, cnt)}
		for i := uint64(0); i < cnt; i++ {
			if len(b) < off+2 {
				return nil, 0, frameErr("PATHS", ErrTruncated)
			}
			pi := PathInfo{PathID: PathID(b[off]), PotentiallyFailed: b[off+1]&0x01 != 0}
			off += 2
			us, n, err := ConsumeVarint(b[off:])
			if err != nil {
				return nil, 0, frameErr("PATHS", err)
			}
			off += n
			if us > maxDurationUS {
				return nil, 0, frameErr("PATHS", errDurationRange)
			}
			pi.SRTT = time.Duration(us) * time.Microsecond
			f.Paths = append(f.Paths, pi)
		}
		return f, off, nil
	case TypeConnectionClose:
		off := 1
		code, n, err := consumeUint32(b[off:])
		if err != nil {
			return nil, 0, frameErr("CONNECTION_CLOSE", err)
		}
		off += n
		l, n, err := ConsumeVarint(b[off:])
		if err != nil {
			return nil, 0, frameErr("CONNECTION_CLOSE", err)
		}
		off += n
		s, n, err := consumeBytes(b[off:], int(l))
		if err != nil {
			return nil, 0, frameErr("CONNECTION_CLOSE", err)
		}
		off += n
		return &ConnectionCloseFrame{ErrorCode: code, Reason: string(s)}, off, nil
	case TypeHandshake:
		if len(b) < 2 {
			return nil, 0, frameErr("HANDSHAKE", ErrTruncated)
		}
		off := 2
		l, n, err := ConsumeVarint(b[off:])
		if err != nil {
			return nil, 0, frameErr("HANDSHAKE", err)
		}
		off += n
		p, n, err := consumeBytes(b[off:], int(l))
		if err != nil {
			return nil, 0, frameErr("HANDSHAKE", err)
		}
		off += n
		return &HandshakeFrame{Message: HandshakeMessageType(b[1]), Payload: p}, off, nil
	default:
		return nil, 0, fmt.Errorf("wire: unknown frame type %#x", t)
	}
}

// parseStreamFrame decodes the STREAM frame at the front of b into f
// and returns the bytes consumed.
func parseStreamFrame(f *StreamFrame, b []byte) (int, error) {
	fin := b[0]&0x01 != 0
	off := 1
	sid, n, err := ConsumeVarint(b[off:])
	if err != nil {
		return 0, frameErr("STREAM", err)
	}
	off += n
	offset, n, err := ConsumeVarint(b[off:])
	if err != nil {
		return 0, frameErr("STREAM", err)
	}
	off += n
	l, n, err := ConsumeVarint(b[off:])
	if err != nil {
		return 0, frameErr("STREAM", err)
	}
	off += n
	data, n, err := consumeBytes(b[off:], int(l))
	if err != nil {
		return 0, frameErr("STREAM", err)
	}
	off += n
	*f = StreamFrame{StreamID: StreamID(sid), Offset: offset, Data: data, Fin: fin}
	return off, nil
}
