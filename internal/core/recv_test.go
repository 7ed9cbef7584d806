package core

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"mpquic/internal/netem"
	"mpquic/internal/recovery"
	"mpquic/internal/sim"
	"mpquic/internal/slab"
	"mpquic/internal/stream"
	"mpquic/internal/wire"
)

// newServerConn builds an established server connection with no
// socket: its network has no links, so whatever it sends is dropped.
func newServerConn(cfg Config) *Conn {
	nw := netem.New(sim.NewClock(), sim.NewRand(1))
	c := newConn(nw, RoleServer, 1, cfg, []netem.Addr{"s0"}, []netem.Addr{"c0"}, new(slab.List[recovery.SentPacket]))
	c.addPath(0, "s0", "c0")
	c.handshakeComplete = true
	return c
}

// TestFarOffsetsHoldChunksNotSpans: 64 one-byte STREAM frames, each on
// a new stream at the far end of its 16 MiB window, cost the receiver a
// chunk each. While reassembly kept one window over the span the
// offsets named, they grew the heap by 1 023 MiB.
func TestFarOffsetsHoldChunksNotSpans(t *testing.T) {
	start := time.Now()
	c := newServerConn(DefaultConfig())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 64; i++ {
		c.handleStreamFrame(&wire.StreamFrame{StreamID: FirstClientStream + wire.StreamID(2*i), Offset: 16<<20 - 2, Data: []byte{1}})
	}
	runtime.ReadMemStats(&after)
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("64 frames: %d KiB allocated, %d chunks held, %v", grew>>10, c.recvChunks, time.Since(start))
	if grew > 4<<20 {
		t.Errorf("64 one-byte frames allocated %d KiB, budget 4 MiB", grew>>10)
	}
	if c.closed || c.recvChunks != 64 {
		t.Errorf("closed %v, %d chunks held, want open with 64", c.closed, c.recvChunks)
	}
	runtime.KeepAlive(c)
}

// TestStreamFloodClosesAtChunkCap: one-byte frames at offset 0, each on
// a new stream, hold a chunk per stream. The frame that takes the
// connection past twice its window in chunks closes it, and everything
// reassembly held goes back. 70 000 such frames once grew the heap by
// 1.1 GiB.
func TestStreamFloodClosesAtChunkCap(t *testing.T) {
	start := time.Now()
	cfg := DefaultConfig()
	c := newServerConn(cfg)
	limit := int(2 * cfg.ConnWindow / stream.ChunkSize)
	frames := 0
	for ; frames < 70000 && !c.closed; frames++ {
		c.handleStreamFrame(&wire.StreamFrame{StreamID: FirstClientStream + wire.StreamID(2*frames), Data: []byte{1}})
		if c.recvChunks > limit {
			t.Fatalf("frame %d: %d chunks held, cap %d", frames, c.recvChunks, limit)
		}
	}
	t.Logf("closed after %d frames: %v (%v)", frames, c.closeErr, time.Since(start))
	if !c.closed || frames != limit+1 {
		t.Errorf("closed %v after %d frames, want closed by frame %d", c.closed, frames, limit+1)
	}
	if c.recvChunks != 0 {
		t.Errorf("%d chunks still held after the close", c.recvChunks)
	}
}

// runConnFrames interprets ops, six bytes each, as STREAM (some with
// FIN) and WINDOW_UPDATE frames from a hostile peer on eight streams, to
// an established server whose application reads and answers half of
// the streams and never reads the others. Windows are small, so the
// chunk cap and both flow-control limits are in reach. After every
// frame it checks what reassembly holds, until the connection closes.
func runConnFrames(t *testing.T, ops []byte) {
	cfg := DefaultConfig()
	cfg.StreamWindow = 64 << 10
	cfg.ConnWindow = 128 << 10
	c := newServerConn(cfg)
	var (
		read   = map[wire.StreamID]uint64{}
		maxEnd = map[wire.StreamID]uint64{}
	)
	c.OnStreamOpen(func(s *Stream) {
		if (s.id-FirstClientStream)/2%2 == 1 {
			return // never read
		}
		replied := false
		s.OnData(func() {
			for n := s.Readable(); n > 0; n = s.Readable() {
				got, _ := s.Read(n)
				read[s.id] += got
			}
			if s.Finished() && !replied {
				replied = true
				s.Write([]byte("done"))
				s.Close()
			}
		})
	})
	payload := make([]byte, 1500)
	for i := range payload {
		payload[i] = byte(i)
	}
	for ; len(ops) >= 6 && !c.closed; ops = ops[6:] {
		id := FirstClientStream + 2*wire.StreamID(ops[0]&7)
		a := uint64(ops[1])<<8 | uint64(ops[2])
		switch kind := ops[0] >> 3 & 7; kind {
		case 6, 7:
			if kind == 7 {
				id = 0 // the connection's window
			}
			c.handleFrame(c.paths[0], &wire.WindowUpdateFrame{StreamID: id, Offset: a << 6})
		default:
			off := a % cfg.StreamWindow // its end now and then past the window
			n := (uint64(ops[3])<<8 | uint64(ops[4])) % uint64(len(payload)+1)
			f := &wire.StreamFrame{StreamID: id, Offset: off, Data: payload[:n], Fin: kind == 5 || ops[5] == 0xff}
			maxEnd[id] = max(maxEnd[id], off+n)
			c.handleFrame(c.paths[0], f)
		}
		if c.closed {
			break
		}
		sum := 0
		for _, s := range c.streams {
			sum += s.recv.Chunks()
			span := maxEnd[s.id] - read[s.id]
			if limit := (span+stream.ChunkSize-1)/stream.ChunkSize + 1; uint64(s.recv.Chunks()) > limit {
				t.Fatalf("stream %d holds %d chunks over an unread span of %d bytes, limit %d", s.id, s.recv.Chunks(), span, limit)
			}
		}
		if sum != c.recvChunks {
			t.Fatalf("the connection counts %d chunks, its streams hold %d", c.recvChunks, sum)
		}
		if held := uint64(c.recvChunks) * stream.ChunkSize; held > 2*cfg.ConnWindow {
			t.Fatalf("reassembly holds %d bytes, cap %d", held, 2*cfg.ConnWindow)
		}
	}
	if c.closed && c.recvChunks != 0 {
		t.Fatalf("%d chunks still held after the close (%v)", c.recvChunks, c.closeErr)
	}
}

// connFramesSeeds are random op sequences, which run into the chunk cap
// and the flow-control limits, and one honest-looking sequence: stream
// 0 in order to its FIN, across chunk boundaries, then two frames
// around a hole on stream 1, which is never read.
func connFramesSeeds() [][]byte {
	rng := rand.New(rand.NewSource(46))
	var seeds [][]byte
	for _, n := range []int{40, 400, 4000} {
		ops := make([]byte, 6*n)
		rng.Read(ops)
		seeds = append(seeds, ops)
	}
	var honest []byte
	for off := 0; off < 20000; off += 1500 {
		fin := byte(0)
		if off+1500 >= 20000 {
			fin = 0xff
		}
		honest = append(honest, 0, byte(off>>8), byte(off), 1500>>8, 1500&0xff, fin)
	}
	honest = append(honest, 1, 0x40, 0, 1500>>8, 1500&0xff, 0, 1, 0, 0, 1500>>8, 1500&0xff, 0)
	return append(seeds, honest, []byte{})
}

// FuzzConnFrames lets the fuzzer write the peer.
func FuzzConnFrames(f *testing.F) {
	for _, ops := range connFramesSeeds() {
		f.Add(ops)
	}
	f.Fuzz(runConnFrames)
}
