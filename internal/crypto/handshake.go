package crypto

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// The handshake below models QUIC crypto's 1-RTT exchange (§2 of the
// paper: "Each QUIC connection starts with a secure handshake" costing
// one round trip, versus 3 RTTs for TCP+TLS 1.2):
//
//	client                          server
//	  CHLO(client share) ────────▶
//	                     ◀──────── SHLO(server share)
//	  [protected data]   ────────▶
//
// The "key exchange" is a toy commutative construction (iterated
// hashing of shares into a shared secret) — the security of the key
// exchange is out of scope for the reproduction, but the derived keys
// feed real AES-GCM sealing so packet protection and the multipath
// nonce discipline are exercised for real.

// HandshakeMessageSize is the modeled size in bytes of CHLO and SHLO
// payloads (key shares, certificates are assumed cached as in Google
// QUIC's 1-RTT mode).
const HandshakeMessageSize = 400

// ClientHandshake drives the client side.
type ClientHandshake struct {
	share  [32]byte
	secret []byte
	done   bool
}

// NewClientHandshake creates a client handshake with a share derived
// from the seed.
func NewClientHandshake(seed uint64) *ClientHandshake {
	c := &ClientHandshake{}
	c.share = deriveShare("client", seed)
	return c
}

// CHLO returns the client hello payload.
func (c *ClientHandshake) CHLO() []byte {
	out := make([]byte, HandshakeMessageSize)
	copy(out, c.share[:])
	return out
}

// OnSHLO consumes the server hello and completes the handshake.
func (c *ClientHandshake) OnSHLO(payload []byte) error {
	if len(payload) < 32 {
		return fmt.Errorf("crypto: SHLO too short: %d", len(payload))
	}
	var serverShare [32]byte
	copy(serverShare[:], payload[:32])
	c.secret = combineShares(c.share, serverShare)
	c.done = true
	return nil
}

// Secret returns the shared secret (panics before completion).
func (c *ClientHandshake) Secret() []byte {
	if !c.done {
		panic("crypto: client handshake not complete")
	}
	return c.secret
}

// ServerHandshake drives the server side.
type ServerHandshake struct {
	share  [32]byte
	secret []byte
	done   bool
}

// NewServerHandshake creates a server handshake.
func NewServerHandshake(seed uint64) *ServerHandshake {
	s := &ServerHandshake{}
	s.share = deriveShare("server", seed)
	return s
}

// OnCHLO consumes the client hello and returns the SHLO payload.
func (s *ServerHandshake) OnCHLO(payload []byte) ([]byte, error) {
	if len(payload) < 32 {
		return nil, fmt.Errorf("crypto: CHLO too short: %d", len(payload))
	}
	var clientShare [32]byte
	copy(clientShare[:], payload[:32])
	s.secret = combineShares(clientShare, s.share)
	s.done = true
	out := make([]byte, HandshakeMessageSize)
	copy(out, s.share[:])
	return out, nil
}

// Secret returns the shared secret (panics before completion).
func (s *ServerHandshake) Secret() []byte {
	if !s.done {
		panic("crypto: server handshake not complete")
	}
	return s.secret
}

func deriveShare(role string, seed uint64) [32]byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], seed)
	return sha256.Sum256(append([]byte(role+":share:"), b[:]...))
}

// combineShares folds both shares into the shared secret. Order is
// normalized (client first) so both sides derive the same value.
func combineShares(client, server [32]byte) []byte {
	h := sha256.New()
	h.Write([]byte("mpquic-shared-secret"))
	h.Write(client[:])
	h.Write(server[:])
	return h.Sum(nil)
}

// ResumptionSecret models 0-RTT resumption à la Google QUIC: a client
// holding a cached server config can derive the connection secret
// without waiting for the SHLO. Both sides derive it from the shared
// cached state (modeled by the seed).
func ResumptionSecret(seed uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], seed)
	h := sha256.Sum256(append([]byte("mpquic-resumption:"), b[:]...))
	return h[:]
}

// SessionKeys derives both directions' packet protection keys from the
// completed handshake secret.
func SessionKeys(secret []byte) (clientToServer, serverToClient Keys) {
	return DeriveKeys(secret, "c2s"), DeriveKeys(secret, "s2c")
}
