package mee

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"

	"odrips/internal/dram"
)

// stateMagic identifies a serialized engine state blob.
const stateMagic = 0x4F44524D45455631 // "ODRMEEV1"

// StateSize is the size of the serialized on-chip engine state in bytes.
// It is what ODRIPS must keep in the Boot SRAM (together with PMU and
// memory-controller state) across the power-down: key material, the
// freshness root, and the region geometry, sealed with an integrity tag.
const StateSize = 8 + 32 + 8 + 8 + 8 + 32

// ExportState serializes the engine's on-chip state: master key, root
// counter, and layout. The blob is bound by an HMAC so Boot SRAM
// corruption is detected at import.
//
// The cache is NOT exported: it is power-gated in DRIPS, which is why
// restore traffic pays cold metadata misses (§6.3's 13 µs read latency).
func (e *Engine) ExportState() []byte {
	buf := make([]byte, 0, StateSize)
	buf = binary.LittleEndian.AppendUint64(buf, stateMagic)
	buf = append(buf, e.masterKey[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, e.rootCounter)
	buf = binary.LittleEndian.AppendUint64(buf, e.layout.Base)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.layout.DataBlocks))
	tag := stateTag(e.stateMAC(), buf)
	return append(buf, tag[:]...)
}

// stateMAC returns the engine's HMAC context under its master key, keying
// it on first use.
func (e *Engine) stateMAC() *macCtx {
	if e.stateMac.inner == nil {
		e.stateMac.init(e.masterKey[:])
	}
	return &e.stateMac
}

// stateTag computes the HMAC-SHA-256 integrity tag of a state blob body.
func stateTag(m *macCtx, body []byte) [sha256.Size]byte {
	m.begin()
	m.write(body)
	return m.finish()
}

// ImportState reconstructs an engine from a state blob over the same
// memory module, with a cold cache. The master key embedded in the blob
// must produce a matching integrity tag.
//
// spare, when non-nil, is a powered-down engine (typically the one whose
// ExportState produced the blob) that the import may re-initialize in
// place instead of building a new one: it is reused when its memory
// module, master key, region layout and cache size all match the import,
// and left untouched otherwise. A reused engine is indistinguishable from
// a freshly built one — cold cache, zero traffic counters, no walk in
// flight, root counter from the blob — and the import then performs no
// allocations. The integrity check runs on both paths.
func ImportState(mem *dram.Module, blob []byte, cacheLines int, spare *Engine) (*Engine, error) {
	if len(blob) != StateSize {
		return nil, fmt.Errorf("mee: state blob size %d, want %d", len(blob), StateSize)
	}
	if binary.LittleEndian.Uint64(blob[0:8]) != stateMagic {
		return nil, fmt.Errorf("mee: bad state magic")
	}
	var key [32]byte
	copy(key[:], blob[8:40])
	rootCounter := binary.LittleEndian.Uint64(blob[40:48])
	base := binary.LittleEndian.Uint64(blob[48:56])
	dataBlocks := int(binary.LittleEndian.Uint64(blob[56:64]))

	reuse := spare != nil && spare.mem == mem && spare.masterKey == key &&
		len(spare.cache.lines) == max(cacheLines, 1)
	var mac *macCtx
	if reuse {
		mac = spare.stateMAC()
	} else {
		mac = new(macCtx)
		mac.init(key[:])
	}
	tag := stateTag(mac, blob[:StateSize-32])
	if subtle.ConstantTimeCompare(tag[:], blob[StateSize-32:]) != 1 {
		return nil, fmt.Errorf("mee: state blob integrity check failed")
	}
	if reuse && spare.layout.Base == base && spare.layout.DataBlocks == dataBlocks {
		// The layout is a pure function of (base, dataBlocks), so the
		// spare's own is the one PlanLayout would produce.
		spare.coldStart(rootCounter)
		return spare, nil
	}
	layout, err := PlanLayout(base, dataBlocks)
	if err != nil {
		return nil, err
	}
	return build(mem, layout, key, cacheLines, rootCounter)
}
