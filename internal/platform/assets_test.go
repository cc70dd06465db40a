package platform

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"odrips/internal/faults"
	"odrips/internal/mee"
	"odrips/internal/sim"
	"odrips/internal/workload"
)

// The seed-asset table (assets.go) is a pure memo: sharing its images must
// never show in a result, whatever runs did to their own platforms, however
// many goroutines build at once and whichever entries were evicted.

// runSeed builds a platform of cfg at seed, optionally installs a fault
// plan, runs n 30 s cycles and returns what it reported.
func runSeed(t *testing.T, cfg Config, seed int64, plan string, n int) (*Platform, Result, []FlowStep) {
	t.Helper()
	cfg.Seed = seed
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan != "" {
		fp, err := faults.Parse(plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.InjectFaults(fp); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.RunCycles(workload.Fixed(n, 0, 30*sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	return p, res, p.FlowTrace()
}

// assetDigests builds every image group of an entry and hashes it.
func assetDigests(a *seedAssets) map[string][32]byte {
	ctx, ctxHash := a.offChipImage()
	sa, cp := a.sramImages()
	return map[string][32]byte{
		"ctx":     sha256.Sum256(ctx),
		"ctxHash": ctxHash,
		"sa":      sha256.Sum256(sa),
		"cp":      sha256.Sum256(cp),
		"pmu":     sha256.Sum256(a.pmuVec),
		"meeKey":  a.meeKey,
	}
}

func emramConfig() Config {
	cfg := ODRIPSConfig()
	cfg.Techniques &^= CtxSGXDRAM
	cfg.CtxInEMRAM = true
	return cfg
}

// TestSeedAssetsImmutable: runs that corrupt their own eMRAM copy, flip
// DRAM bits in the protected region (data and metadata) and tamper through
// Mem() leave the shared images at their original digests, and the next
// platform of the seed reports exactly what one built from freshly
// computed assets reports.
func TestSeedAssetsImmutable(t *testing.T) {
	const seed = 4101
	p0, _, _ := runSeed(t, ODRIPSConfig(), seed, "", 1)
	pb, _, _ := runSeed(t, DefaultConfig(), seed, "", 1)
	a := assetsFor(seed)
	want := assetDigests(a)
	if &p0.ctxImage[0] != &a.ctxImage[0] || &pb.saImage[0] != &a.saImage[0] || &pb.cpImage[0] != &a.cpImage[0] {
		t.Fatal("the platforms do not use the shared images")
	}
	if p0.saBuf != nil || pb.ctxImage != nil {
		t.Fatal("a platform took images its context store never uses")
	}
	base, blocks := p0.CtxRegion().Base, len(p0.restoreBuf)/mee.BlockSize
	metaBit := len(p0.restoreBuf)*8 + 5 // first L0 metadata block

	for _, f := range []struct {
		cfg  Config
		plan string
	}{
		{emramConfig(), "meefail@1:1"}, // flips the platform's eMRAM copy
		{ODRIPSConfig(), "meefail@1:1"},
		{ODRIPSConfig(), "bitflip@1:12345"},
		{ODRIPSConfig(), fmt.Sprintf("bitflip@1:%d", metaBit)},
	} {
		if _, res, _ := runSeed(t, f.cfg, seed, f.plan, 3); res.Faults.Fired != 1 || res.Faults.Degradations != 1 {
			t.Fatalf("%s %s: faults %+v, want one fired injection and a degradation", f.cfg.Name(), f.plan, res.Faults)
		}
	}
	cfg := ODRIPSConfig()
	cfg.Seed = seed
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flipL0Block0(t, p)
	if _, err := p.RunCycles(workload.Fixed(1, 0, 30*sim.Second)); err == nil {
		t.Fatal("Mem() tamper went undetected")
	}

	if got, ok := seedAssetTable.Peek(seed); !ok || got != a {
		t.Fatal("the entry was rebuilt or evicted during the test")
	}
	if got := assetDigests(a); !reflect.DeepEqual(got, want) {
		t.Fatalf("shared images changed:\n got %x\nwant %x", got, want)
	}
	fresh := newSeedAssets(seed)
	if got := assetDigests(fresh); !reflect.DeepEqual(got, want) {
		t.Fatal("shared images differ from freshly computed ones")
	}
	img, err := a.meeImage(base, blocks)
	if err != nil {
		t.Fatal(err)
	}
	freshImg, err := mee.Format(base, blocks, a.meeKey)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(img, freshImg) {
		t.Fatal("shared MEE metadata image changed")
	}

	for _, cfg := range []Config{ODRIPSConfig(), emramConfig(), DefaultConfig()} {
		_, resShared, traceShared := runSeed(t, cfg, seed, "", 2)
		seedAssetTable.Put(seed, newSeedAssets(seed))
		_, resFresh, traceFresh := runSeed(t, cfg, seed, "", 2)
		if !reflect.DeepEqual(resShared, resFresh) || !reflect.DeepEqual(traceShared, traceFresh) {
			t.Errorf("%s: a platform on the shared assets differs from one on fresh assets", cfg.Name())
		}
	}
}

// TestSeedAssetsConcurrent: concurrent New on overlapping seeds, all of
// them table misses at first, reports what sequential platforms on fresh
// assets report (run under -race).
func TestSeedAssetsConcurrent(t *testing.T) {
	seeds := []int64{4201, 4202, 4203}
	type out struct {
		res   Result
		trace []FlowStep
	}
	got := make([]out, 9)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := ODRIPSConfig()
			cfg.Seed = seeds[i%len(seeds)]
			p, err := New(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			res, err := p.RunCycles(workload.Fixed(1, 0, 30*sim.Second))
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = out{res, p.FlowTrace()}
		}(i)
	}
	wg.Wait()
	for _, seed := range seeds {
		seedAssetTable.Put(seed, newSeedAssets(seed))
	}
	for i, o := range got {
		_, res, trace := runSeed(t, ODRIPSConfig(), seeds[i%len(seeds)], "", 1)
		if !reflect.DeepEqual(o.res, res) || !reflect.DeepEqual(o.trace, trace) {
			t.Errorf("goroutine %d (seed %d) differs from a sequential run", i, seeds[i%len(seeds)])
		}
	}
}

// TestSeedAssetsEviction: rotating more seeds than the table holds keeps
// it within its capacity, and a seed rebuilt after eviction reports what
// it reported the first time.
func TestSeedAssetsEviction(t *testing.T) {
	seeds := []int64{4301, 4302, 4303, 4304, 4305, 4306}
	if len(seeds) <= seedAssetsCap {
		t.Fatal("the rotation must exceed the table capacity")
	}
	type out struct {
		res   Result
		trace []FlowStep
	}
	first := map[int64]out{}
	evictions := seedAssetTable.Stats().Evictions
	for round := 0; round < 2; round++ {
		for _, seed := range seeds {
			_, res, trace := runSeed(t, ODRIPSConfig(), seed, "", 1)
			if n := seedAssetTable.Len(); n > seedAssetsCap {
				t.Fatalf("table holds %d entries, capacity %d", n, seedAssetsCap)
			}
			if round == 0 {
				first[seed] = out{res, trace}
				continue
			}
			if !reflect.DeepEqual(first[seed].res, res) || !reflect.DeepEqual(first[seed].trace, trace) {
				t.Errorf("seed %d: the rebuilt assets changed the result", seed)
			}
		}
	}
	if seedAssetTable.Stats().Evictions-evictions < uint64(len(seeds)) {
		t.Fatal("the rotation evicted too little to exercise rebuilding")
	}
}

// BenchmarkPlatformNew measures New on a seed whose assets are already
// built, the case every platform after the first of its seed meets.
func BenchmarkPlatformNew(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"odrips", ODRIPSConfig()}, {"baseline", DefaultConfig()}} {
		b.Run(c.name, func(b *testing.B) {
			if _, err := New(c.cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := New(c.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
