package core

// HandshakeComplete reports whether keys are established.
func (c *Conn) HandshakeComplete() bool { return c.handshakeComplete }

// StrayDrops reports how many well-formed non-handshake packets the
// listener dropped because their Connection ID was unknown.
func (l *Listener) StrayDrops() uint64 { return l.strayDrops }
