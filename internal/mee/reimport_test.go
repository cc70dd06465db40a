package mee

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"odrips/internal/dram"
)

// Re-import in place (ImportState with a spare engine) must be an
// optimization only: the reused engine behaves exactly like one built by a
// fresh ImportState, across whole save → restore → save sequences.

// twinEngines builds two engines with identical histories over separate
// memory modules: both format, save payload, and flush.
func twinEngines(t *testing.T, blocks, lines int, payload []byte) (memA *dram.Module, a *Engine, memB *dram.Module, b *Engine) {
	t.Helper()
	memA, a = newEngineLines(t, blocks, lines)
	memB, b = newEngineLines(t, blocks, lines)
	for _, e := range []*Engine{a, b} {
		if err := e.WriteRegion(payload); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return memA, a, memB, b
}

// regionBytes returns the raw DRAM bytes of an engine's protected region
// (data and metadata).
func regionBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	l := e.Layout()
	out, err := e.Mem().Read(l.Base, int(l.TotalBytes()))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// engineView is a deep snapshot of the engine's state minus its memory
// module (compared through regionBytes) and its keyed HMAC contexts, whose
// digests hold the dead residue of whatever message they last absorbed.
// Their keying is compared through behavior: every MAC they compute lands
// in the compared DRAM bytes and blob tags.
func engineView(e *Engine) Engine {
	v := *e
	v.mem = nil
	v.mac, v.stateMac = macCtx{}, macCtx{}
	cache := *e.cache
	cache.lines = append([]cacheLine(nil), e.cache.lines...)
	v.cache = &cache
	v.pathBuf = append([]pathBlock(nil), e.pathBuf...)
	return v
}

func TestReimportMatchesFreshImport(t *testing.T) {
	const blocks, lines = 700, 32
	payload := make([]byte, blocks*BlockSize-17)
	rng := rand.New(rand.NewSource(11))
	rng.Read(payload)
	memA, a, memB, b := twinEngines(t, blocks, lines, payload)

	for cycle := 0; cycle < 3; cycle++ {
		blobA, blobB := a.ExportState(), b.ExportState()
		if !bytes.Equal(blobA, blobB) {
			t.Fatalf("cycle %d: exported blobs differ", cycle)
		}
		spare := a
		var err error
		if a, err = ImportState(memA, blobA, lines, spare); err != nil {
			t.Fatal(err)
		}
		if a != spare {
			t.Fatalf("cycle %d: matching spare was not reused", cycle)
		}
		fresh := b
		if b, err = ImportState(memB, blobB, lines, nil); err != nil {
			t.Fatal(err)
		}
		if b == fresh {
			t.Fatal("nil spare returned the old engine")
		}
		if !reflect.DeepEqual(engineView(a), engineView(b)) {
			t.Fatalf("cycle %d: re-imported engine differs from a fresh import", cycle)
		}
		if a.Stats() != (Stats{}) || a.RootCounter() != b.RootCounter() {
			t.Fatalf("cycle %d: re-import stats %+v root %d, fresh root %d", cycle, a.Stats(), a.RootCounter(), b.RootCounter())
		}

		// Restore: cold-cache sequential read of the whole context.
		gotA, err := a.ReadRegion(len(payload))
		if err != nil {
			t.Fatal(err)
		}
		gotB, err := b.ReadRegion(len(payload))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotA, payload) || !bytes.Equal(gotB, payload) {
			t.Fatalf("cycle %d: restored context differs from the saved one", cycle)
		}
		if a.Stats() != b.Stats() {
			t.Fatalf("cycle %d restore: stats %+v (re-import) vs %+v (fresh)", cycle, a.Stats(), b.Stats())
		}

		// Save: a new image over the restored engines.
		rng.Read(payload)
		for _, e := range []*Engine{a, b} {
			if err := e.WriteRegion(payload); err != nil {
				t.Fatal(err)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if a.Stats() != b.Stats() || a.RootCounter() != b.RootCounter() {
			t.Fatalf("cycle %d save: stats %+v root %d (re-import) vs %+v root %d (fresh)",
				cycle, a.Stats(), a.RootCounter(), b.Stats(), b.RootCounter())
		}
		if !bytes.Equal(regionBytes(t, a), regionBytes(t, b)) {
			t.Fatalf("cycle %d: DRAM bytes differ after the save", cycle)
		}
	}
}

// TestReimportRejectsTamperedBlob: the integrity check guards the reuse
// path too, and a rejected import leaves the spare untouched.
func TestReimportRejectsTamperedBlob(t *testing.T) {
	mem, e := newEngine(t, 64)
	if err := e.WriteRegion(block(7)); err != nil {
		t.Fatal(err)
	}
	blob := e.ExportState()
	root, stats := e.RootCounter(), e.Stats()
	for _, off := range []int{0, 41, 49, 57, StateSize - 1} { // magic, root, base, blocks, tag
		bad := append([]byte(nil), blob...)
		bad[off] ^= 0x10
		if got, err := ImportState(mem, bad, 32, e); err == nil || got != nil {
			t.Fatalf("tampered byte %d: import returned %v, %v; want an error", off, got, err)
		}
		if e.RootCounter() != root || e.Stats() != stats {
			t.Fatalf("tampered byte %d: rejected import mutated the spare", off)
		}
	}
	if got, err := ImportState(mem, blob, 32, e); err != nil || got != e {
		t.Fatalf("pristine blob: import returned %p, %v; want the spare %p", got, err, e)
	}
}

// TestReimportFallsBackToFreshBuild: a spare that does not match the
// import in memory, key, layout or cache size is never reused.
func TestReimportFallsBackToFreshBuild(t *testing.T) {
	mem, spare := newEngineLines(t, 64, 32)
	spareBlob := spare.ExportState()
	spareView := engineView(spare)

	otherKey := testKey
	otherKey[0] ^= 1
	keyed, err := New(mem, 0x2000_0000, 64, otherKey, 32)
	if err != nil {
		t.Fatal(err)
	}
	bigger, err := New(mem, 0x3000_0000, 128, testKey, 32)
	if err != nil {
		t.Fatal(err)
	}
	moved, err := New(mem, 0x4000_0000, 64, testKey, 32)
	if err != nil {
		t.Fatal(err)
	}
	otherMem, _ := newEngineLines(t, 64, 32)

	cases := []struct {
		name  string
		mem   *dram.Module
		blob  []byte
		lines int
	}{
		{"key", mem, keyed.ExportState(), 32},
		{"block count", mem, bigger.ExportState(), 32},
		{"base", mem, moved.ExportState(), 32},
		{"cache size", mem, spareBlob, 16},
		{"memory module", otherMem, spareBlob, 32},
	}
	for _, c := range cases {
		got, err := ImportState(c.mem, c.blob, c.lines, spare)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got == spare {
			t.Fatalf("%s mismatch: the spare was reused", c.name)
		}
		fresh, err := ImportState(c.mem, c.blob, c.lines, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(engineView(got), engineView(fresh)) {
			t.Fatalf("%s mismatch: fallback import differs from a fresh one", c.name)
		}
		if !reflect.DeepEqual(engineView(spare), spareView) {
			t.Fatalf("%s mismatch: the unused spare was mutated", c.name)
		}
	}
}
