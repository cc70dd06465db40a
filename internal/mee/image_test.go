package mee

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"odrips/internal/dram"
)

// Building an engine from a shared, pre-formatted image must be an
// optimization only: it behaves exactly like an engine that formats its
// region itself, block by block, across whole save → restore sequences.

// formatInPlace is the block-by-block format the image replaces, kept as
// the reference: every metadata block, top level first, zero payload
// sealed under the zero parent counter, written straight to DRAM.
func formatInPlace(t *testing.T, mem *dram.Module, base uint64, dataBlocks int, key [32]byte, lines int) *Engine {
	t.Helper()
	layout, err := PlanLayout(base, dataBlocks)
	if err != nil {
		t.Fatal(err)
	}
	e, err := build(mem, layout, key, lines, 0)
	if err != nil {
		t.Fatal(err)
	}
	writeLvl := func(lvl, count int) {
		for idx := 0; idx < count; idx++ {
			var data [BlockSize]byte
			setMacOf(lvl, data[:], e.mac.meta(payloadOf(lvl, data[:]), lvl, idx, 0))
			if err := mem.Write(e.metaAddr(lvl, idx), data[:]); err != nil {
				t.Fatal(err)
			}
			e.stats.MetaWrites++
		}
	}
	for lvl := e.topLevel(); lvl >= 1; lvl-- {
		writeLvl(lvl, layout.LevelNodes[lvl-1])
	}
	writeLvl(0, layout.L0Blocks)
	return e
}

// sameEngines fails unless the two engines and their modules are
// indistinguishable: region bytes, engine state, traffic and DRAM counts.
// Its own region reads count as DRAM traffic, so both modules must have
// been compared equally often before.
func sameEngines(t *testing.T, stage string, memA *dram.Module, a *Engine, memB *dram.Module, b *Engine) {
	t.Helper()
	if !bytes.Equal(regionBytes(t, a), regionBytes(t, b)) {
		t.Fatalf("%s: region DRAM bytes differ", stage)
	}
	if a.Stats() != b.Stats() || a.RootCounter() != b.RootCounter() {
		t.Fatalf("%s: stats %+v root %d vs stats %+v root %d", stage, a.Stats(), a.RootCounter(), b.Stats(), b.RootCounter())
	}
	if !reflect.DeepEqual(engineView(a), engineView(b)) {
		t.Fatalf("%s: engine state differs", stage)
	}
	ra, wa := memA.Stats()
	rb, wb := memB.Stats()
	if ra != rb || wa != wb {
		t.Fatalf("%s: DRAM blocks read/written %d/%d vs %d/%d", stage, ra, wa, rb, wb)
	}
}

func TestImageEngineMatchesInPlaceFormat(t *testing.T) {
	const base, blocks, lines = 0x1000_0000, 700, 32
	img, err := Format(base, blocks, testKey)
	if err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256(img.meta)
	// A first engine over the image proves the sharing: the compared one
	// is the second, after the first has saved, restored and flushed.
	memS := dram.New(dram.Skylake8GB())
	shared, err := NewFromImage(memS, img, base, blocks, testKey, lines)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, blocks*BlockSize-17)
	rand.New(rand.NewSource(5)).Read(payload)
	if err := shared.WriteRegion(payload); err != nil {
		t.Fatal(err)
	}
	if err := shared.Flush(); err != nil {
		t.Fatal(err)
	}

	memA := dram.New(dram.Skylake8GB())
	a, err := NewFromImage(memA, img, base, blocks, testKey, lines)
	if err != nil {
		t.Fatal(err)
	}
	memB := dram.New(dram.Skylake8GB())
	b := formatInPlace(t, memB, base, blocks, testKey, lines)
	memN := dram.New(dram.Skylake8GB())
	n, err := New(memN, base, blocks, testKey, lines)
	if err != nil {
		t.Fatal(err)
	}
	memR := dram.New(dram.Skylake8GB())
	sameEngines(t, "fresh (New)", memN, n, memR, formatInPlace(t, memR, base, blocks, testKey, lines))
	sameEngines(t, "fresh", memA, a, memB, b)
	if got := a.Stats().MetaWrites; got != a.Layout().MetadataBytes()/BlockSize {
		t.Fatalf("MetaWrites %d after format, want one per metadata block", got)
	}

	for cycle := 0; cycle < 2; cycle++ {
		for _, e := range []*Engine{a, b} {
			if err := e.WriteRegion(payload); err != nil {
				t.Fatal(err)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		sameEngines(t, "after save", memA, a, memB, b)
		blobA, blobB := a.ExportState(), b.ExportState()
		if !bytes.Equal(blobA, blobB) {
			t.Fatalf("cycle %d: exported blobs differ", cycle)
		}
		if a, err = ImportState(memA, blobA, lines, a); err != nil {
			t.Fatal(err)
		}
		if b, err = ImportState(memB, blobB, lines, b); err != nil {
			t.Fatal(err)
		}
		var bufA, bufB [BlockSize]byte
		for i := 0; i < blocks; i++ {
			if err := a.ReadBlockInto(i, bufA[:]); err != nil {
				t.Fatal(err)
			}
			if err := b.ReadBlockInto(i, bufB[:]); err != nil {
				t.Fatal(err)
			}
			if bufA != bufB {
				t.Fatalf("cycle %d: block %d reads differ", cycle, i)
			}
		}
		sameEngines(t, "after restore", memA, a, memB, b)
	}

	// A flipped bit in the first L0 block is caught the same way by both.
	l0 := base + uint64(blocks)*BlockSize
	for _, mem := range []*dram.Module{memA, memB} {
		if err := mem.CorruptBit(l0+3, 2); err != nil {
			t.Fatal(err)
		}
	}
	blobA, blobB := a.ExportState(), b.ExportState()
	a2, errA := ImportState(memA, blobA, lines, nil)
	b2, errB := ImportState(memB, blobB, lines, nil)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	_, errA = a2.ReadRegion(len(payload))
	_, errB = b2.ReadRegion(len(payload))
	var ie *IntegrityError
	if !errors.As(errA, &ie) || errA.Error() != errB.Error() {
		t.Fatalf("corruption detection differs: %v vs %v", errA, errB)
	}

	if sha256.Sum256(img.meta) != digest {
		t.Fatal("engines wrote through the shared image")
	}
}

// TestImageRefusesOtherKeyOrLayout: an image is only ever written for the
// key and layout it was formatted for.
func TestImageRefusesOtherKeyOrLayout(t *testing.T) {
	const base, blocks = 0x1000_0000, 64
	img, err := Format(base, blocks, testKey)
	if err != nil {
		t.Fatal(err)
	}
	otherKey := testKey
	otherKey[0] ^= 1
	for name, c := range map[string]struct {
		base   uint64
		blocks int
		key    [32]byte
	}{
		"key":    {base, blocks, otherKey},
		"base":   {base + BlockSize, blocks, testKey},
		"blocks": {base, blocks + 1, testKey},
	} {
		mem := dram.New(dram.Skylake8GB())
		if _, err := NewFromImage(mem, img, c.base, c.blocks, c.key, DefaultCacheLines); err == nil {
			t.Errorf("%s: an image formatted for another %s was accepted", name, name)
		}
		if _, w := mem.Stats(); w != 0 {
			t.Errorf("%s: a refused image wrote %d DRAM blocks", name, w)
		}
	}
}
