//go:build !race

// Alloc-regression guards for the zero-allocation datapath. They are
// excluded under the race detector, whose instrumentation inserts its own
// allocations; the plain `go test` tier (tier 1 and the CI bench smoke)
// runs them.

package mee

import (
	"math/rand"
	"testing"

	"odrips/internal/dram"
)

func warmEngine(t *testing.T, blocks int) (*dram.Module, *Engine, []byte) {
	t.Helper()
	mem, e := newEngine(t, blocks)
	payload := make([]byte, blocks*BlockSize)
	rand.New(rand.NewSource(3)).Read(payload)
	if err := e.WriteRegion(payload); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return mem, e, payload
}

// TestWriteBlockAllocFree locks in zero allocations on the steady-state
// write path (reused HMAC state, engine scratch, in-place DRAM blocks).
func TestWriteBlockAllocFree(t *testing.T) {
	_, e, _ := warmEngine(t, 64)
	data := block(0x42)
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		if err := e.WriteBlock(i%64, data); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Fatalf("WriteBlock allocates %.1f/op in steady state, want 0", n)
	}
}

// TestReadBlockIntoAllocFree locks in zero allocations on the in-place
// read path.
func TestReadBlockIntoAllocFree(t *testing.T) {
	_, e, _ := warmEngine(t, 64)
	var buf [BlockSize]byte
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		if err := e.ReadBlockInto(i%64, buf[:]); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Fatalf("ReadBlockInto allocates %.1f/op in steady state, want 0", n)
	}
}

// TestContextSaveAllocFree locks in zero allocations for a full warm
// 200 KB-scale save (WriteRegion + Flush), the per-cycle hot loop of the
// CTX-SGX-DRAM flow.
func TestContextSaveAllocFree(t *testing.T) {
	_, e, payload := warmEngine(t, 3200)
	if n := testing.AllocsPerRun(5, func() {
		if err := e.WriteRegion(payload); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warm WriteRegion+Flush allocates %.1f/op, want 0", n)
	}
}

// TestContextRestoreAllocFree locks in zero allocations for a full warm
// region read through ReadRegionInto.
func TestContextRestoreAllocFree(t *testing.T) {
	_, e, payload := warmEngine(t, 3200)
	dst := make([]byte, 3200*BlockSize)
	if n := testing.AllocsPerRun(5, func() {
		if _, err := e.ReadRegionInto(dst, len(payload)); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warm ReadRegionInto allocates %.1f/op, want 0", n)
	}
}

// TestReimportIntoSpareAllocFree locks in zero allocations for the restore
// flow's re-import of the Boot-SRAM blob into the powered-down engine:
// the tag is verified with the engine's own HMAC context and the cache is
// cleared in place.
func TestReimportIntoSpareAllocFree(t *testing.T) {
	mem, e, _ := warmEngine(t, 3200)
	blob := e.ExportState()
	if n := testing.AllocsPerRun(20, func() {
		got, err := ImportState(mem, blob, 32, e)
		if err != nil {
			t.Fatal(err)
		}
		if got != e {
			t.Fatal("matching spare was not reused")
		}
	}); n != 0 {
		t.Fatalf("ImportState into a matching spare allocates %.1f/op, want 0", n)
	}
}
