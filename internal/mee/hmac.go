package mee

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"hash"
)

// macCtx is a reusable HMAC-SHA-256 context. Instead of constructing a
// fresh hmac.New(sha256.New, key) for every MAC — which allocates two
// digests, the pad blocks, and a Sum buffer per call — it keeps two
// engine-owned digests plus the serialized SHA-256 states that result from
// absorbing the ipad/opad blocks once. Each MAC then restores the
// precomputed state (clone-and-reset) and streams the message, so the
// steady-state path performs zero allocations and skips the two pad-block
// compressions HMAC normally pays per invocation.
//
// The output is bit-identical to crypto/hmac with the same key (asserted by
// TestMacCtxMatchesCryptoHMAC).
type macCtx struct {
	inner, outer hash.Hash
	// Pre-asserted unmarshalers for the two digests (nil when the hash
	// implementation does not support state marshaling; then the pads are
	// re-absorbed on every MAC, still without allocating).
	innerU, outerU encoding.BinaryUnmarshaler
	// Serialized digest states right after absorbing ipad / opad.
	innerSeed, outerSeed []byte
	ipad, opad           [sha256.BlockSize]byte
	sum                  [sha256.Size]byte
	u64                  [8]byte // length/index staging for writeU64
}

// init keys the context. Keys longer than the SHA-256 block size are
// pre-hashed, matching RFC 2104 / crypto/hmac.
func (m *macCtx) init(key []byte) {
	if len(key) > sha256.BlockSize {
		sum := sha256.Sum256(key)
		key = sum[:]
	}
	for i := range m.ipad {
		m.ipad[i] = 0x36
		m.opad[i] = 0x5c
	}
	for i, b := range key {
		m.ipad[i] ^= b
		m.opad[i] ^= b
	}
	m.inner = sha256.New()
	m.outer = sha256.New()
	m.inner.Write(m.ipad[:])
	m.outer.Write(m.opad[:])
	im, iok := m.inner.(encoding.BinaryMarshaler)
	om, ook := m.outer.(encoding.BinaryMarshaler)
	iu, iuok := m.inner.(encoding.BinaryUnmarshaler)
	ou, ouok := m.outer.(encoding.BinaryUnmarshaler)
	if !(iok && ook && iuok && ouok) {
		return // pad-rewrite fallback
	}
	iseed, ierr := im.MarshalBinary()
	oseed, oerr := om.MarshalBinary()
	if ierr != nil || oerr != nil {
		return
	}
	// Round-trip once so begin/finish can ignore the (impossible after
	// this check) unmarshal error on the hot path.
	if iu.UnmarshalBinary(iseed) != nil || ou.UnmarshalBinary(oseed) != nil {
		return
	}
	m.innerU, m.outerU = iu, ou
	m.innerSeed, m.outerSeed = iseed, oseed
}

// begin resets the context to the post-ipad state.
func (m *macCtx) begin() {
	if m.innerU != nil {
		_ = m.innerU.UnmarshalBinary(m.innerSeed) // verified at init
		return
	}
	m.inner.Reset()
	m.inner.Write(m.ipad[:])
}

// write streams message bytes into the MAC.
func (m *macCtx) write(p []byte) { m.inner.Write(p) }

// writeU64 streams a little-endian uint64 into the MAC.
func (m *macCtx) writeU64(v uint64) {
	binary.LittleEndian.PutUint64(m.u64[:], v)
	m.write(m.u64[:])
}

// finish completes the HMAC and returns the full tag. The context is left
// ready for the next begin.
func (m *macCtx) finish() [sha256.Size]byte {
	isum := m.inner.Sum(m.sum[:0])
	if m.outerU != nil {
		_ = m.outerU.UnmarshalBinary(m.outerSeed) // verified at init
	} else {
		m.outer.Reset()
		m.outer.Write(m.opad[:])
	}
	m.outer.Write(isum)
	m.outer.Sum(m.sum[:0]) // isum already consumed; reuse the buffer
	return m.sum
}

// finishTrunc completes the HMAC and returns the truncated macSize-byte
// tag. The context is left ready for the next begin.
func (m *macCtx) finishTrunc() (out [macSize]byte) {
	sum := m.finish()
	copy(out[:], sum[:macSize])
	return out
}
