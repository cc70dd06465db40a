package mee

import (
	"bytes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"testing"

	"odrips/internal/dram"
)

// TestStatsGolden pins the exact traffic counters of a 200 KB-scale
// save/flush/power-cycle/restore against values recorded before the
// zero-allocation datapath landed. The §6.3 latencies are derived from
// these counts, so any optimization that shifts them — including the
// sequential-walk fast path's hit crediting — is a model change, not a
// speedup.
func TestStatsGolden(t *testing.T) {
	type golden struct {
		blocks, lines int
		save, restore Stats
	}
	cases := []golden{
		// Pathologically small cache: the walk must disengage (path lines
		// alias) and the slow path's thrash pattern must be reproduced
		// exactly.
		{24, 4,
			Stats{DataWrites: 24, MetaReads: 31, MetaWrites: 30, CacheHits: 168, CacheMisses: 55},
			Stats{DataReads: 24, MetaReads: 15, CacheHits: 36, CacheMisses: 15}},
		{24, 16,
			Stats{DataWrites: 24, MetaReads: 11, MetaWrites: 11, CacheHits: 154, CacheMisses: 11},
			Stats{DataReads: 24, MetaReads: 11, CacheHits: 34, CacheMisses: 11}},
		{3141, 4,
			Stats{DataWrites: 3141, MetaReads: 14072, MetaWrites: 11430, CacheHits: 42388, CacheMisses: 25076},
			Stats{DataReads: 3141, MetaReads: 2247, CacheHits: 5142, CacheMisses: 2247}},
		{3141, 32,
			Stats{DataWrites: 3141, MetaReads: 2453, MetaWrites: 2428, CacheHits: 33658, CacheMisses: 3794},
			Stats{DataReads: 3141, MetaReads: 1337, CacheHits: 4448, CacheMisses: 1337}},
		{3141, 256,
			Stats{DataWrites: 3141, MetaReads: 1304, MetaWrites: 1304, CacheHits: 32701, CacheMisses: 1400},
			Stats{DataReads: 3141, MetaReads: 1239, CacheHits: 4375, CacheMisses: 1239}},
		{3200, 16,
			Stats{DataWrites: 3200, MetaReads: 4411, MetaWrites: 4320, CacheHits: 35864, CacheMisses: 7753},
			Stats{DataReads: 3200, MetaReads: 1490, CacheHits: 4636, CacheMisses: 1490}},
		{3200, 256,
			Stats{DataWrites: 3200, MetaReads: 1327, MetaWrites: 1327, CacheHits: 33314, CacheMisses: 1423},
			Stats{DataReads: 3200, MetaReads: 1262, CacheHits: 4457, CacheMisses: 1262}},
		{3200, 512,
			Stats{DataWrites: 3200, MetaReads: 1287, MetaWrites: 1287, CacheHits: 33280, CacheMisses: 1335},
			Stats{DataReads: 3200, MetaReads: 1255, CacheHits: 4452, CacheMisses: 1255}},
	}
	var key [32]byte
	key[0] = 0x5A
	for _, g := range cases {
		payload := make([]byte, g.blocks*BlockSize)
		rand.New(rand.NewSource(99)).Read(payload)
		mem := dram.New(dram.Skylake8GB())
		eng, err := New(mem, 0x1000_0000, g.blocks, key, g.lines)
		if err != nil {
			t.Fatal(err)
		}
		eng.ResetStats()
		if err := eng.WriteRegion(payload); err != nil {
			t.Fatal(err)
		}
		if err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := eng.Stats(); got != g.save {
			t.Errorf("blocks=%d lines=%d save stats drifted:\n got  %+v\n want %+v", g.blocks, g.lines, got, g.save)
		}
		cold, err := ImportState(mem, eng.ExportState(), g.lines, nil)
		if err != nil {
			t.Fatal(err)
		}
		back, err := cold.ReadRegion(len(payload))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, payload) {
			t.Fatalf("blocks=%d lines=%d restore corrupted payload", g.blocks, g.lines)
		}
		if got := cold.Stats(); got != g.restore {
			t.Errorf("blocks=%d lines=%d restore stats drifted:\n got  %+v\n want %+v", g.blocks, g.lines, got, g.restore)
		}
	}
}

// TestWalkMatchesSlowPath drives two engines — one with the sequential-walk
// fast paths disabled — through identical operation mixes and demands
// bit-identical Stats after every operation, identical read results, and
// identical DRAM images after every flush. This is the tentpole's "Stats
// counts must not change" assertion in its strongest form.
func TestWalkMatchesSlowPath(t *testing.T) {
	const blocks = 64
	for _, lines := range []int{4, 8, 32, 256} {
		memA := dram.New(dram.Skylake8GB())
		memB := dram.New(dram.Skylake8GB())
		a, err := New(memA, 0x1000_0000, blocks, testKey, lines)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(memB, 0x1000_0000, blocks, testKey, lines)
		if err != nil {
			t.Fatal(err)
		}
		b.noWalk = true
		a.ResetStats()
		b.ResetStats()

		rng := rand.New(rand.NewSource(int64(lines)))
		var bufA, bufB [BlockSize]byte
		for op := 0; op < 4000; op++ {
			switch k := rng.Intn(10); {
			case k < 5: // sequential-ish write runs exercise the walk
				i := rng.Intn(blocks)
				data := block(byte(op))
				if err := a.WriteBlock(i, data); err != nil {
					t.Fatal(err)
				}
				if err := b.WriteBlock(i, data); err != nil {
					t.Fatal(err)
				}
				if rng.Intn(3) == 0 { // extend into a run
					for j := i + 1; j < blocks && j < i+rng.Intn(12); j++ {
						data := block(byte(op + j))
						if err := a.WriteBlock(j, data); err != nil {
							t.Fatal(err)
						}
						if err := b.WriteBlock(j, data); err != nil {
							t.Fatal(err)
						}
					}
				}
			case k < 8: // reads (skip never-written errors symmetrically)
				i := rng.Intn(blocks)
				errA := a.ReadBlockInto(i, bufA[:])
				errB := b.ReadBlockInto(i, bufB[:])
				if (errA == nil) != (errB == nil) {
					t.Fatalf("lines=%d op=%d read %d: walk err=%v, slow err=%v", lines, op, i, errA, errB)
				}
				if errA == nil && bufA != bufB {
					t.Fatalf("lines=%d op=%d read %d: plaintext diverged", lines, op, i)
				}
			default: // flush and compare full DRAM images
				if err := a.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := b.Flush(); err != nil {
					t.Fatal(err)
				}
				total := int(a.Layout().TotalBytes())
				rawA, err := memA.Read(a.Layout().Base, total)
				if err != nil {
					t.Fatal(err)
				}
				rawB, err := memB.Read(b.Layout().Base, total)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(rawA, rawB) {
					t.Fatalf("lines=%d op=%d: DRAM images diverged after flush", lines, op)
				}
			}
			sa, sb := a.Stats(), b.Stats()
			// DRAM traffic is priced identically on both modules, so strip
			// the module-level counters before comparing.
			if sa != sb {
				t.Fatalf("lines=%d op=%d: stats diverged:\n walk %+v\n slow %+v", lines, op, sa, sb)
			}
		}
	}
}

// TestMacCtxMatchesCryptoHMAC checks the reusable clone-and-reset HMAC
// context against crypto/hmac across message shapes and both code paths
// (marshaled-state restore and the pad-rewrite fallback).
func TestMacCtxMatchesCryptoHMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, keyLen := range []int{16, 32, sha256.BlockSize, sha256.BlockSize + 17} {
		key := make([]byte, keyLen)
		rng.Read(key)
		var m macCtx
		m.init(key)
		if m.innerU == nil {
			t.Fatalf("sha256 digest lost state marshaling; fallback would be silently slower")
		}
		var fb macCtx
		fb.init(key)
		fb.innerU, fb.outerU = nil, nil // force the pad-rewrite fallback
		for trial := 0; trial < 64; trial++ {
			msg := make([]byte, rng.Intn(200))
			rng.Read(msg)
			ref := hmac.New(sha256.New, key)
			ref.Write(msg)
			want := ref.Sum(nil)
			for name, ctx := range map[string]*macCtx{"marshaled": &m, "fallback": &fb} {
				ctx.begin()
				// Stream in two pieces to exercise chunked writes.
				ctx.write(msg[:len(msg)/2])
				ctx.write(msg[len(msg)/2:])
				got := ctx.finishTrunc()
				if !bytes.Equal(got[:], want[:macSize]) {
					t.Fatalf("%s keyLen=%d trial=%d: macCtx %x != hmac %x", name, keyLen, trial, got, want[:macSize])
				}
			}
		}
	}
}

// TestXORKeyStreamMatchesStdlibCTR checks the engine's in-place CTR
// implementation against cipher.NewCTR for the exact IV construction the
// datapath uses.
func TestXORKeyStreamMatchesStdlibCTR(t *testing.T) {
	_, e := newEngine(t, 8)
	rng := rand.New(rand.NewSource(11))
	src := make([]byte, BlockSize)
	want := make([]byte, BlockSize)
	got := make([]byte, BlockSize)
	for trial := 0; trial < 256; trial++ {
		rng.Read(src)
		blockIdx := rng.Intn(1 << 20)
		version := rng.Uint64()
		var iv [16]byte
		binary.LittleEndian.PutUint64(iv[0:8], uint64(blockIdx))
		binary.LittleEndian.PutUint64(iv[8:16], version)
		cipher.NewCTR(e.aesBlock, iv[:]).XORKeyStream(want, src)
		e.xorKeyStream(got, src, blockIdx, version)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d (block=%d version=%d): xorKeyStream diverged from cipher.NewCTR", trial, blockIdx, version)
		}
	}
}

// TestReadBlockIntoShortDst covers the in-place API's size contract.
func TestReadBlockIntoShortDst(t *testing.T) {
	_, e := newEngine(t, 4)
	if err := e.WriteBlock(0, block(1)); err != nil {
		t.Fatal(err)
	}
	var buf [BlockSize]byte
	if err := e.ReadBlockInto(0, buf[:BlockSize-1]); err == nil {
		t.Fatal("short destination accepted")
	}
	if err := e.ReadBlockInto(0, buf[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ReadRegionInto(buf[:], 2*BlockSize); err == nil {
		t.Fatal("short region destination accepted")
	}
}
