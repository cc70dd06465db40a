package platform

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"odrips/internal/ctxstore"
	"odrips/internal/lru"
	"odrips/internal/mee"
)

// Seed-derived platform assets (DESIGN.md §9). Every platform of one seed
// generates the same ~200 KB processor context, serializes it into the same
// full, SA and compute images, derives the same PMU vector and MEE key and,
// when the context lives in protected DRAM, formats the same MEE metadata
// for the same region (the DRAM capacity and the context size are fixed, so
// the region is too). All of it is a pure function of the seed, so New
// builds it once per seed and shares it read-only. What a run mutates —
// DRAM, the SRAMs, the restore buffers, eMRAM, the engine — stays per
// platform: flows only copy from the shared images or compare against them.
// Only byte images are shared, never a *ctxstore.Context, whose Section
// hands out its live storage.

// seedAssetsCap bounds the table. The paper suite builds every platform
// with seed 1; fleet jobs give each run class a seed of its own, and the
// serve benchmark's four job classes recur from job to job. An entry holds
// up to ~0.5 MB, so an unbounded table would grow with every class a
// long-lived server sees. Four entries keep both working sets resident
// (two measured ~20 % worse serve p50 on a 2-core host) and the table
// under ~2 MB.
const seedAssetsCap = 4

// seedAssets are the read-only images one seed yields. Each group is built
// on first use, so an entry holds only what its platforms need: the full
// context image for the off-chip stores (MEE and eMRAM), the retention
// images for the SRAM store (and any platform that degrades to it), the
// MEE metadata for CTX-SGX-DRAM. No one may write through these slices.
type seedAssets struct {
	seed   int64
	pmuVec []byte // PMU boot vector
	meeKey [32]byte

	offChip  sync.Once
	ctxImage []byte   // canonical serialization of the full context
	ctxHash  [32]byte // sha256(ctxImage)

	onChip  sync.Once
	saImage []byte // SA retention image
	cpImage []byte // compute retention image

	meeOnce sync.Once
	meeImg  *mee.Image
	meeErr  error
}

//odrips:allow globalstate a bounded pure memo of seed-derived, read-only platform images: a hit is bit-identical to a recompute and nothing writes through an entry
var seedAssetTable = lru.New[int64, *seedAssets](seedAssetsCap)

// assetsFor returns the shared assets of seed, creating the entry on a
// miss. Concurrent misses on one seed may each create one; their images
// are identical and the last Put wins.
func assetsFor(seed int64) *seedAssets {
	if a, ok := seedAssetTable.Get(seed); ok {
		return a
	}
	a := newSeedAssets(seed)
	seedAssetTable.Put(seed, a)
	return a
}

func newSeedAssets(seed int64) *seedAssets {
	a := &seedAssets{seed: seed}
	v := sha256.Sum256([]byte(fmt.Sprintf("pmu-vector-%d", seed)))
	a.pmuVec = v[:]
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	a.meeKey = sha256.Sum256(append([]byte("odrips-mee-key"), b[:]...))
	return a
}

// offChipImage returns the full context image and its digest.
func (a *seedAssets) offChipImage() ([]byte, [32]byte) {
	a.offChip.Do(func() {
		a.ctxImage = ctxstore.GenerateSkylake(a.seed).Serialize()
		a.ctxHash = sha256.Sum256(a.ctxImage)
	})
	return a.ctxImage, a.ctxHash
}

// sramImages returns the SA and compute retention images.
func (a *seedAssets) sramImages() (sa, cp []byte) {
	a.onChip.Do(func() {
		ctx := ctxstore.GenerateSkylake(a.seed)
		a.saImage = ctx.Subset(ctxstore.SASectionNames()).Serialize()
		a.cpImage = ctx.Subset(ctxstore.ComputeSectionNames()).Serialize()
	})
	return a.saImage, a.cpImage
}

// meeImage returns the MEE metadata image of the context region at base,
// formatting it on first use. Every platform of the seed asks for the same
// region; mee.NewFromImage refuses the image should that ever change.
func (a *seedAssets) meeImage(base uint64, blocks int) (*mee.Image, error) {
	a.meeOnce.Do(func() { a.meeImg, a.meeErr = mee.Format(base, blocks, a.meeKey) })
	return a.meeImg, a.meeErr
}
