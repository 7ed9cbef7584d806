package core

import "mpquic/internal/recovery"

// HandshakeComplete reports whether keys are established.
func (c *Conn) HandshakeComplete() bool { return c.handshakeComplete }

// Space returns the path's packet-number space.
func (p *Path) Space() *recovery.Space { return p.space }

// StrayDrops reports how many well-formed non-handshake packets the
// listener dropped because their Connection ID was unknown.
func (l *Listener) StrayDrops() uint64 { return l.strayDrops }
