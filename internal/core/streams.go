package core

import (
	"mpquic/internal/stream"
	"mpquic/internal/wire"
)

// Stream is the application-facing handle for one bidirectional QUIC
// stream. All methods must be called from simulation callbacks (the
// engine is single-threaded on the virtual clock).
type Stream struct {
	conn *Conn
	id   wire.StreamID

	send *stream.SendStream
	recv *stream.RecvStream
	fc   *stream.FlowController

	// onData fires whenever new contiguous bytes become readable or
	// the FIN arrives.
	onData func()
}

// Write queues real payload bytes and triggers transmission.
func (s *Stream) Write(p []byte) {
	s.send.Write(p)
	s.conn.trySend()
}

// WriteSynthetic queues n logical bytes (benchmark mode).
func (s *Stream) WriteSynthetic(n uint64) {
	s.send.WriteSynthetic(n)
	s.conn.trySend()
}

// Close finishes the write side (sends FIN).
func (s *Stream) Close() {
	s.send.Close()
	s.conn.trySend()
}

// Readable reports contiguous unread bytes.
func (s *Stream) Readable() uint64 { return s.recv.Readable() }

// Read consumes up to n readable bytes, freeing flow-control credit.
// data is nil for synthetic payloads; otherwise it aliases the
// stream's reassembly window and is valid only until the connection
// handles its next datagram: consume or copy it before returning. (Once
// an OnData callback returns with the stream Finished, the window goes
// back to the pool for the next stream.)
func (s *Stream) Read(n uint64) (uint64, []byte) {
	consumed, data := s.recv.Read(n)
	if consumed > 0 {
		s.fc.OnConsume(consumed)
		s.conn.connFC.OnConsume(consumed)
		s.conn.maybeQueueWindowUpdates(s)
	}
	return consumed, data
}

// BytesReceived reports total distinct stream bytes that arrived.
func (s *Stream) BytesReceived() uint64 { return s.recv.BytesReceived() }

// FinReceived reports whether the peer finished writing.
func (s *Stream) FinReceived() bool { return s.recv.FinReceived() }

// Finished reports whether the peer's FIN arrived and all bytes were
// consumed by Read.
func (s *Stream) Finished() bool { return s.recv.Finished() }

// OnData registers the data-arrival callback.
func (s *Stream) OnData(fn func()) { s.onData = fn }

// --- connection-side stream management ---

// OpenStream opens a new locally initiated stream.
func (c *Conn) OpenStream() *Stream {
	id := c.nextStreamID
	c.nextStreamID += 2
	if s := c.stream(id); s != nil {
		return s // the peer used the ID first
	}
	return c.newStream(id)
}

// StreamByID returns an existing stream, or nil.
func (c *Conn) StreamByID(id wire.StreamID) *Stream { return c.stream(id) }

// stream returns the stream with the given ID, or nil.
//
//mpq:noescape
func (c *Conn) stream(id wire.StreamID) *Stream {
	for _, s := range c.streams {
		if s.id == id {
			return s
		}
	}
	return nil
}

// newStream creates and registers the stream with the given ID, which
// the caller has checked does not exist yet.
func (c *Conn) newStream(id wire.StreamID) *Stream {
	s := &Stream{
		conn: c,
		id:   id,
		send: stream.NewSendStream(id),
		recv: stream.NewRecvStream(id),
		fc:   stream.NewFlowController(c.cfg.StreamWindow),
	}
	c.streams = append(c.streams, s)
	return s
}

// maybeQueueWindowUpdates emits WINDOW_UPDATE frames when consumption
// freed enough credit. In multipath mode with WindowUpdateAllPaths the
// frames are copied onto every active path (§3: the scheduler "ensures
// proper delivery of the WINDOW_UPDATE frames by sending them on all
// paths when they are needed").
func (c *Conn) maybeQueueWindowUpdates(s *Stream) {
	var frames []wire.Frame
	if s.fc.ShouldSendUpdate() {
		frames = append(frames, &wire.WindowUpdateFrame{StreamID: s.id, Offset: s.fc.NextUpdate()})
	}
	if c.connFC.ShouldSendUpdate() {
		frames = append(frames, &wire.WindowUpdateFrame{StreamID: 0, Offset: c.connFC.NextUpdate()})
	}
	if len(frames) == 0 {
		return
	}
	if c.cfg.Multipath && c.cfg.WindowUpdateAllPaths {
		for _, p := range c.paths {
			for _, f := range frames {
				p.queueCtrl(f)
			}
		}
	} else {
		c.ctrl = append(c.ctrl, frames...)
	}
	c.trySend()
}
