// Package crypto provides the security substrate of the reproduction:
// a 1-RTT QUIC-crypto-style handshake model and real AEAD packet
// protection (AES-128-GCM from the standard library).
//
// The paper's §3 notes that reusing a packet number on two paths would
// reuse the cryptographic nonce, and suggests involving the Path ID in
// the nonce computation. This package implements exactly that: the
// 96-bit nonce is IV ⊕ (PathID‖PacketNumber), so equal packet numbers
// on different paths never collide.
package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"mpquic/internal/wire"
)

// ErrDecrypt is returned when AEAD authentication fails.
var ErrDecrypt = errors.New("crypto: message authentication failed")

// KeySize is the AES-128 key size in bytes.
const KeySize = 16

// ivSize is the GCM nonce size.
const ivSize = 12

// Keys holds one direction's packet-protection material.
type Keys struct {
	Key [KeySize]byte
	IV  [ivSize]byte
}

// DeriveKeys expands a shared secret and label into directional keys,
// HKDF-like but using plain SHA-256 chaining (sufficient for an
// emulated handshake; the point is the nonce discipline, not the KDF).
func DeriveKeys(secret []byte, label string) Keys {
	var k Keys
	h := sha256.Sum256(append(append([]byte{}, secret...), []byte("key:"+label)...))
	copy(k.Key[:], h[:KeySize])
	h2 := sha256.Sum256(append(append([]byte{}, secret...), []byte("iv:"+label)...))
	copy(k.IV[:], h2[:ivSize])
	return k
}

// Sealer is an AEAD bound to one direction of a connection. It
// implements wire.Sealer. A Sealer is single-owner state, like the
// connection it belongs to: calls must not overlap.
type Sealer struct {
	aead cipher.AEAD
	iv   [ivSize]byte
	// nonce is per-call scratch. A local array would escape through
	// the cipher.AEAD interface call and cost one allocation per
	// packet; the Sealer is on the heap anyway.
	nonce [ivSize]byte
	// MultipathNonce controls whether the Path ID participates in the
	// nonce. Disabling it (single-path mode, or the insecure strawman
	// the paper warns about) makes nonces collide across paths; the
	// test suite demonstrates the collision.
	MultipathNonce bool
}

// NewSealer builds a Sealer from directional keys.
func NewSealer(k Keys, multipathNonce bool) (*Sealer, error) {
	block, err := aes.NewCipher(k.Key[:])
	if err != nil {
		return nil, fmt.Errorf("crypto: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("crypto: %w", err)
	}
	s := &Sealer{aead: aead, iv: k.IV, MultipathNonce: multipathNonce}
	return s, nil
}

// setNonce builds the per-packet nonce into s.nonce: IV ⊕
// (PathID<<56 ‖ PacketNumber) over the low 8 bytes of the 12-byte IV.
func (s *Sealer) setNonce(path wire.PathID, pn wire.PacketNumber) {
	s.nonce = s.iv
	v := uint64(pn)
	if s.MultipathNonce {
		v |= uint64(path) << 56
	}
	lo := s.nonce[ivSize-8:]
	binary.BigEndian.PutUint64(lo, binary.BigEndian.Uint64(lo)^v)
}

// Seal implements wire.Sealer.
func (s *Sealer) Seal(path wire.PathID, pn wire.PacketNumber, header, plaintext []byte) []byte {
	return s.SealTo(nil, path, pn, header, plaintext)
}

// Open implements wire.Sealer.
func (s *Sealer) Open(path wire.PathID, pn wire.PacketNumber, header, ciphertext []byte) ([]byte, error) {
	return s.OpenTo(nil, path, pn, header, ciphertext)
}

// SealTo implements wire.Sealer.
//
//mpq:noescape
func (s *Sealer) SealTo(dst []byte, path wire.PathID, pn wire.PacketNumber, header, plaintext []byte) []byte {
	s.setNonce(path, pn)
	return s.aead.Seal(dst, s.nonce[:], plaintext, header)
}

// OpenTo implements wire.Sealer.
//
//mpq:noescape
func (s *Sealer) OpenTo(dst []byte, path wire.PathID, pn wire.PacketNumber, header, ciphertext []byte) ([]byte, error) {
	s.setNonce(path, pn)
	pt, err := s.aead.Open(dst, s.nonce[:], ciphertext, header)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}

// NonceFor exposes the nonce computation for tests proving the
// cross-path uniqueness property.
func (s *Sealer) NonceFor(path wire.PathID, pn wire.PacketNumber) []byte {
	s.setNonce(path, pn)
	n := s.nonce
	return n[:]
}
