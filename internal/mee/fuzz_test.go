package mee

import (
	"bytes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"odrips/internal/dram"
)

// FuzzImportState hardens the Boot-SRAM-resident engine state parser: a
// corrupted blob must be rejected with an error, never panic, and never
// produce an engine that silently accepts a tampered region.
func FuzzImportState(f *testing.F) {
	mem := dram.New(dram.Skylake8GB())
	eng, err := New(mem, 0x1000_0000, 8, testKey, 16)
	if err != nil {
		f.Fatal(err)
	}
	if err := eng.WriteBlock(0, block(1)); err != nil {
		f.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		f.Fatal(err)
	}
	good := eng.ExportState()
	f.Add(good)
	f.Add([]byte{})
	f.Add(good[:StateSize/2])
	for _, off := range []int{0, 8, 40, StateSize - 1} {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x80
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		m := dram.New(dram.Skylake8GB())
		e, err := ImportState(m, blob, 16, nil)
		if err != nil {
			return
		}
		// Only the untouched good blob may be accepted: the HMAC covers
		// every byte, so any mutation must fail.
		if string(blob) != string(good) {
			t.Fatalf("mutated state blob accepted")
		}
		_ = e
	})
}

// FuzzReadAfterCorruption feeds random single-block corruption into a
// protected region and checks the engine either errors or returns the
// original plaintext — never garbage.
func FuzzReadAfterCorruption(f *testing.F) {
	f.Add(uint16(0), byte(1))
	f.Add(uint16(100), byte(0x80))
	f.Fuzz(func(t *testing.T, offSeed uint16, flip byte) {
		if flip == 0 {
			return
		}
		mem := dram.New(dram.Skylake8GB())
		e, err := New(mem, 0, 6, testKey, 8)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[int][]byte)
		for i := 0; i < 6; i++ {
			data := block(byte(i * 7))
			if err := e.WriteBlock(i, data); err != nil {
				t.Fatal(err)
			}
			want[i] = data
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		l := e.Layout()
		off := uint64(offSeed) % l.TotalBytes()
		addr := off / BlockSize * BlockSize
		raw, err := mem.Read(addr, BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		raw[off%BlockSize] ^= flip
		if err := mem.Write(addr, raw); err != nil {
			t.Fatal(err)
		}
		cold, err := ImportState(mem, e.ExportState(), 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			got, err := cold.ReadBlock(i)
			if err != nil {
				continue // rejection is always acceptable
			}
			if string(got) != string(want[i]) {
				t.Fatalf("block %d read garbage after corruption at %#x", i, off)
			}
		}
	})
}

// referenceReadBlock is a deliberately naive, allocation-heavy read of
// block i straight from flushed DRAM: fresh crypto/hmac and cipher.NewCTR
// objects, fresh buffers, no engine scratch, no cache. It shares nothing
// with the in-place datapath except the key material.
func referenceReadBlock(e *Engine, mem *dram.Module, i int) ([]byte, error) {
	l0Raw, err := mem.Read(e.layout.l0Addr(i/entriesPerL0), BlockSize)
	if err != nil {
		return nil, err
	}
	version, wantMAC := l0Entry(l0Raw, i%entriesPerL0)
	if version == 0 {
		return nil, nil // never written
	}
	ct, err := mem.Read(e.layout.dataAddr(i), BlockSize)
	if err != nil {
		return nil, err
	}
	h := hmac.New(sha256.New, e.macKey[:])
	h.Write([]byte("data"))
	h.Write(ct)
	var u [8]byte
	binary.LittleEndian.PutUint64(u[:], uint64(i))
	h.Write(u[:])
	binary.LittleEndian.PutUint64(u[:], version)
	h.Write(u[:])
	if !bytes.Equal(h.Sum(nil)[:macSize], wantMAC) {
		return nil, &IntegrityError{What: "reference data MAC", Addr: e.layout.dataAddr(i)}
	}
	var iv [16]byte
	binary.LittleEndian.PutUint64(iv[0:8], uint64(i))
	binary.LittleEndian.PutUint64(iv[8:16], version)
	pt := make([]byte, BlockSize)
	cipher.NewCTR(e.aesBlock, iv[:]).XORKeyStream(pt, ct)
	return pt, nil
}

// FuzzReadInPlaceDifferential drives the in-place read path (shared
// scratch buffers, sequential-walk L0 reuse) against both a copy-based
// slow-path engine and a from-scratch stdlib reference decode, under
// fuzzer-chosen write/read interleavings. Any scratch-aliasing or
// walk-reuse corruption shows up as a three-way mismatch.
func FuzzReadInPlaceDifferential(f *testing.F) {
	f.Add([]byte{0x00, 0x51, 0x12, 0xa3, 0x64, 0xf5}, byte(1))
	f.Add([]byte{0x10, 0x11, 0x12, 0x90, 0x91, 0x92, 0x93}, byte(0x7f))
	f.Fuzz(func(t *testing.T, script []byte, seed byte) {
		const blocks = 12
		memA := dram.New(dram.Skylake8GB())
		memB := dram.New(dram.Skylake8GB())
		a, err := New(memA, 0x1000_0000, blocks, testKey, 8)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(memB, 0x1000_0000, blocks, testKey, 8)
		if err != nil {
			t.Fatal(err)
		}
		b.noWalk = true // copy-based slow path throughout
		shadow := make(map[int][]byte)
		var inPlace [BlockSize]byte // one buffer reused across ALL reads
		for op, code := range script {
			i := int(code) % blocks
			if (code>>4)&1 == 0 { // write
				data := block(seed ^ byte(op))
				if err := a.WriteBlock(i, data); err != nil {
					t.Fatal(err)
				}
				if err := b.WriteBlock(i, data); err != nil {
					t.Fatal(err)
				}
				shadow[i] = data
				continue
			}
			errA := a.ReadBlockInto(i, inPlace[:])
			refB, errB := b.ReadBlock(i)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("op %d block %d: in-place err=%v, copy-based err=%v", op, i, errA, errB)
			}
			if errA != nil {
				if shadow[i] != nil {
					t.Fatalf("op %d: written block %d failed to read: %v", op, i, errA)
				}
				continue
			}
			if !bytes.Equal(inPlace[:], refB) {
				t.Fatalf("op %d block %d: in-place read diverged from copy-based read", op, i)
			}
			if !bytes.Equal(inPlace[:], shadow[i]) {
				t.Fatalf("op %d block %d: read diverged from written plaintext", op, i)
			}
		}
		// Flush and reference-decode every written block with stdlib
		// primitives straight from DRAM bytes.
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		for i, want := range shadow {
			ref, err := referenceReadBlock(a, memA, i)
			if err != nil {
				t.Fatalf("reference read of block %d: %v", i, err)
			}
			if !bytes.Equal(ref, want) {
				t.Fatalf("block %d: reference decode of flushed DRAM diverged from plaintext", i)
			}
		}
	})
}
