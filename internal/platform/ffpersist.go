package platform

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"sync"

	"odrips/internal/memostore"
	"odrips/internal/power"
	"odrips/internal/sim"
	"odrips/internal/workload"
)

// This file persists the cycle-replay memo (ffcycle.go) through
// internal/memostore (DESIGN.md §13). The unit of persistence is a
// bundle: every cycle record for one canonical platform configuration,
// stored under the configuration's printed form as the content key. The
// store's header (schema version + build fingerprint) invalidates the
// cache wholesale on any code change, so the key only needs to be stable
// within a build — Config is a pure value type, so %#v is.
//
// Soundness does not rest on the decoder: a loaded record is only ever
// used when the live boundary fingerprint recurs (recomputed from live
// state every boundary, exactly as for in-process records), so a stale
// or mismatched record is unreachable, and -memocache=verify
// additionally re-simulates every disk-loaded class and diffs the full
// record, the same contract as -fastforward=verify.
//
// Bundles are shared across platforms in-process — the ROADMAP's
// "shared cross-device memo store" — so worker-pool sweeps and repeated
// runs of one config reuse each other's records. The cache itself is
// owned by the memostore.Store it mirrors (ffBundles, via Store.View),
// never by a package-level variable, so its identity follows the
// store's and the odrips-vet globalstate rule holds.

// ffPersistRecordCap replaces ffRecordCap when a persistent store is
// attached: a six-hour jittered run produces one class per cycle (~720),
// all of which are worth keeping once they can be reused across runs.
const ffPersistRecordCap = 8192

// ffBundleVersion versions the bundle payload layout inside the store
// entry (the store's schema version covers the envelope, this one the
// cycle-record serialization).
const ffBundleVersion = 1

// ffBundleSchemaHash pins the wire schema of the bundle codec. The marker
// below makes odrips-vet compute a structural hash over ffKey and
// cycleRecord (and every module type reachable from them) and compare it
// to this constant: change the shape of anything ffEncodeBundle
// serializes and vet fails with the new hash, forcing a deliberate
// ffBundleVersion bump alongside the re-recorded constant.
//
//odrips:schema ffKey cycleRecord
const ffBundleSchemaHash = "e402e53416a3e4030e46a2b0cbaae17f6a97a1f3a5632e294e16b34043bda70a"

// ffBundle is the in-process face of one persisted bundle. Its mutex
// guards records/fromDisk/dirty/ops; the record values themselves are
// immutable once published, so readers may hold pointers lock-free.
type ffBundle struct {
	key string

	mu       sync.Mutex
	loaded   bool
	records  map[ffKey]*cycleRecord
	fromDisk map[ffKey]bool
	dirty    bool

	// ops are the class's MEE op records (fastforward.go), first
	// publisher wins. They stay in-process: the codec never writes them,
	// and publishing one does not make the bundle dirty.
	ops [ffNumOps]ffOpRec
}

// op returns the bundle's record of kind k (ok false if none yet).
func (b *ffBundle) op(k ffOpKind) ffOpRec {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ops[k]
}

// publishOp offers a platform's first record of kind k to the bundle; a
// nil bundle (no store or plane attached) keeps it local.
func (b *ffBundle) publishOp(k ffOpKind, r ffOpRec) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.ops[k].ok {
		b.ops[k] = r
	}
}

// ffBundles owns the cross-platform bundle cache for one store. It is
// never a package-level variable: the instance hangs off the
// memostore.Store that feeds it (Store.View), so its identity and
// lifetime follow the store's — a test swapping stores implicitly
// starts from an empty cache, and the odrips-vet globalstate rule holds
// for this package.
type ffBundles struct {
	mu      sync.Mutex
	bundles map[string]*ffBundle
}

// ffBundleViewClass names the platform's view slot on a store.
const ffBundleViewClass = "platform.cycles"

// ffBundleView returns the store-owned bundle cache.
func ffBundleView(s *memostore.Store) *ffBundles {
	v, _ := s.View(ffBundleViewClass, func() any {
		return &ffBundles{bundles: make(map[string]*ffBundle)}
	}).(*ffBundles)
	return v
}

// ffConfigKey is the bundle content key for a platform configuration.
func ffConfigKey(cfg Config) string { return fmt.Sprintf("%#v", cfg) }

// ffAcquireBundle returns (creating and disk-loading if needed) the
// shared bundle for cfgKey under store s.
func ffAcquireBundle(s *memostore.Store, cfgKey string) *ffBundle {
	view := ffBundleView(s)
	view.mu.Lock()
	b := view.bundles[cfgKey]
	if b == nil {
		b = &ffBundle{
			key:      cfgKey,
			records:  make(map[ffKey]*cycleRecord),
			fromDisk: make(map[ffKey]bool),
		}
		view.bundles[cfgKey] = b
	}
	view.mu.Unlock()

	b.mu.Lock()
	defer b.mu.Unlock()
	if b.loaded {
		return b
	}
	b.loaded = true
	switch payload, ok, err := s.Load("cycles", []byte(cfgKey)); {
	case err != nil:
		// Typed corruption (*memostore.CorruptError) is a fail-safe miss
		// by the store's contract: it was counted there, the bundle stays
		// empty, and a later flush overwrites the damaged entry.
	case ok:
		if recs, derr := ffDecodeBundle(payload); derr == nil {
			b.records = recs
			for k := range recs {
				b.fromDisk[k] = true
			}
		}
		// A decode error degrades to an empty bundle: the entry passed
		// the store's checksum but predates a bundle-layout change that
		// forgot to bump ffBundleVersion; recompute and overwrite. The
		// odrips-vet schemahash rule exists to make that path dead code.
	}
	return b
}

// ResetPersistentMemos drops the in-process bundle cache hanging off the
// default store, so the next platform reloads from disk. Benchmarks use
// it to measure the honest disk-warm path; tests use it to simulate a
// fresh process.
func ResetPersistentMemos() {
	memostore.Default().DropView(ffBundleViewClass)
}

// ffAttachPersist hooks the platform's cycle memo to the process default
// store, adopting every already-known record for this configuration.
// Called from New; a nil/off store leaves persistence detached.
func (p *Platform) ffAttachPersist() {
	s := memostore.Default()
	if s.Mode() == memostore.Off {
		return
	}
	ff := &p.ff
	b := ffAcquireBundle(s, ffConfigKey(p.cfg))
	ff.store = s
	ff.persist = b

	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.records) == 0 {
		return
	}
	if ff.records == nil {
		ff.records = make(map[ffKey]*cycleRecord, len(b.records))
	}
	for k, cr := range b.records {
		ff.records[k] = cr
	}
	if s.Mode() == memostore.Verify && len(b.fromDisk) > 0 {
		ff.verifyKeys = make(map[ffKey]bool, len(b.fromDisk))
		for k := range b.fromDisk {
			ff.verifyKeys[k] = true
		}
	}
}

// ffPersistAdd publishes a freshly finalized record to the shared
// bundle. Records are immutable once published, so sharing the pointer
// across platforms is safe.
func (ff *ffState) ffPersistAdd(key ffKey, cr *cycleRecord) {
	b := ff.persist
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.records[key] == nil {
		b.records[key] = cr
		b.dirty = true
	}
}

// ffFlushPersist writes the bundle back to the store when it gained
// records. Called at the end of a successful RunCycles; a write failure
// is dropped (the store counts it).
func (p *Platform) ffFlushPersist() {
	ff := &p.ff
	b := ff.persist
	if b == nil || !ff.store.Mode().Writable() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.dirty || len(b.records) == 0 {
		return
	}
	ff.store.Save("cycles", []byte(b.key), ffEncodeBundle(b.records))
	b.dirty = false
}

// ---- Bundle codec ----
//
// Hand-rolled little-endian serialization in a fixed field order. The
// decoder is total (bounds-checked, error-latched) and reconstructs the
// exact value shapes ffFinalizeRecording produces — non-nil empty steps
// slice, nil-when-empty ltrTimers, always-non-nil shallowD — because
// -memocache=verify diffs disk-loaded records against freshly recorded
// ones with reflect.DeepEqual.

// ffEncodeBundle serializes every record, sorted by key for a
// deterministic artifact.
func ffEncodeBundle(records map[ffKey]*cycleRecord) []byte {
	keys := make([]ffKey, 0, len(records))
	for k := range records {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if c := bytes.Compare(a.fp[:], b.fp[:]); c != 0 {
			return c < 0
		}
		if a.active != b.active {
			return a.active < b.active
		}
		if a.idle != b.idle {
			return a.idle < b.idle
		}
		return a.wake < b.wake
	})

	e := &ffEnc{}
	e.u64(ffBundleVersion)
	e.u64(uint64(len(keys)))
	for _, k := range keys {
		e.b32(k.fp)
		e.i64(int64(k.active))
		e.i64(int64(k.idle))
		e.i64(int64(k.wake))
		ffEncodeRecord(e, records[k])
	}
	return e.b
}

// ffDecodeBundle parses a bundle payload; any malformation is an error
// (the caller degrades to an empty bundle).
func ffDecodeBundle(payload []byte) (map[ffKey]*cycleRecord, error) {
	d := &ffDec{b: payload}
	if v := d.u64(); v != ffBundleVersion {
		return nil, fmt.Errorf("platform: bundle version %d (want %d)", v, ffBundleVersion)
	}
	n := d.len(64) // a key+record is far larger than 64 bytes
	records := make(map[ffKey]*cycleRecord, n)
	for i := 0; i < n && d.err == nil; i++ {
		var k ffKey
		k.fp = d.b32()
		k.active = sim.Duration(d.i64())
		k.idle = sim.Duration(d.i64())
		k.wake = workload.WakeKind(d.i64())
		records[k] = ffDecodeRecord(d)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("platform: bundle has %d trailing bytes", len(d.b)-d.off)
	}
	return records, nil
}

func ffEncodeRecord(e *ffEnc, cr *cycleRecord) {
	e.i64(int64(cr.dur))
	e.b32(cr.endFP)
	e.bool(cr.replayable)

	e.u64(uint64(len(cr.nomD))) // nomD, battD, idleByCmpD share len(comps)
	for i := range cr.nomD {
		e.energy(cr.nomD[i])
		e.energy(cr.battD[i])
		e.energy(cr.idleByCmpD[i])
	}
	for i := 0; i < ffNumStates; i++ {
		e.i64(int64(cr.resD[i]))
		e.energy(cr.enD[i])
	}
	e.u64(cr.transD)

	e.u64(cr.entriesD)
	e.u64(cr.exitsD)
	e.i64(int64(cr.entryTotalD))
	e.i64(int64(cr.exitTotalD))
	e.i64(int64(cr.ctxSaveLat))
	e.i64(int64(cr.ctxRestore))
	e.u64(cr.ctxVerifiedD)

	for i := 0; i < 3; i++ {
		e.u64(cr.wakeD[i])
		e.u64(cr.hubWakeD[i])
	}
	e.bool(cr.endWakeFired)
	shallow := make([]string, 0, len(cr.shallowD))
	for k := range cr.shallowD {
		shallow = append(shallow, k)
	}
	sort.Strings(shallow)
	e.u64(uint64(len(shallow)))
	for _, k := range shallow {
		e.str(k)
		e.u64(cr.shallowD[k])
	}

	e.ctrPatch(cr.mainTimerP)
	e.ctrPatch(cr.unitFastP)
	e.bool(cr.x24P.changed)
	e.i64(int64(cr.x24P.stableOff))

	e.u64(uint64(len(cr.ltrTimers)))
	for _, t := range cr.ltrTimers {
		e.str(t.owner)
		e.i64(int64(t.rel))
	}

	e.bool(cr.engPresent)
	e.u64(cr.rootD)
	e.bool(cr.endPrimed)

	e.u64(uint64(len(cr.steps)))
	for _, s := range cr.steps {
		e.str(s.Flow)
		e.str(s.Step)
		e.i64(int64(s.At))
		e.i64(int64(s.Duration))
		e.u64(math.Float64bits(s.EnergyUJ))
	}
}

func ffDecodeRecord(d *ffDec) *cycleRecord {
	cr := &cycleRecord{}
	cr.dur = sim.Duration(d.i64())
	cr.endFP = d.b32()
	cr.replayable = d.bool()

	nc := d.len(48)
	cr.nomD = make([]power.Energy, nc)
	cr.battD = make([]power.Energy, nc)
	cr.idleByCmpD = make([]power.Energy, nc)
	for i := 0; i < nc; i++ {
		cr.nomD[i] = d.energy()
		cr.battD[i] = d.energy()
		cr.idleByCmpD[i] = d.energy()
	}
	for i := 0; i < ffNumStates; i++ {
		cr.resD[i] = sim.Duration(d.i64())
		cr.enD[i] = d.energy()
	}
	cr.transD = d.u64()

	cr.entriesD = d.u64()
	cr.exitsD = d.u64()
	cr.entryTotalD = sim.Duration(d.i64())
	cr.exitTotalD = sim.Duration(d.i64())
	cr.ctxSaveLat = sim.Duration(d.i64())
	cr.ctxRestore = sim.Duration(d.i64())
	cr.ctxVerifiedD = d.u64()

	for i := 0; i < 3; i++ {
		cr.wakeD[i] = d.u64()
		cr.hubWakeD[i] = d.u64()
	}
	cr.endWakeFired = d.bool()
	ns := d.len(16)
	cr.shallowD = make(map[string]uint64, ns) // finalize always builds it
	for i := 0; i < ns; i++ {
		k := d.str()
		cr.shallowD[k] = d.u64()
	}

	cr.mainTimerP = d.ctrPatch()
	cr.unitFastP = d.ctrPatch()
	cr.x24P.changed = d.bool()
	cr.x24P.stableOff = sim.Duration(d.i64())

	nl := d.len(16)
	if nl > 0 { // finalize append-builds: nil when empty
		cr.ltrTimers = make([]ltrPatch, nl)
		for i := range cr.ltrTimers {
			cr.ltrTimers[i].owner = d.str()
			cr.ltrTimers[i].rel = sim.Duration(d.i64())
		}
	}

	cr.engPresent = d.bool()
	cr.rootD = d.u64()
	cr.endPrimed = d.bool()

	nst := d.len(40)
	cr.steps = make([]FlowStep, nst) // finalize always makes it, even empty
	for i := range cr.steps {
		cr.steps[i].Flow = d.str()
		cr.steps[i].Step = d.str()
		cr.steps[i].At = sim.Time(d.i64())
		cr.steps[i].Duration = sim.Duration(d.i64())
		cr.steps[i].EnergyUJ = math.Float64frombits(d.u64())
	}
	return cr
}

// ffEnc is a little-endian append encoder.
type ffEnc struct{ b []byte }

func (e *ffEnc) u64(v uint64)   { e.b = ffPutU64(e.b, v) }
func (e *ffEnc) i64(v int64)    { e.b = ffPutI64(e.b, v) }
func (e *ffEnc) bool(v bool)    { e.b = ffPutBool(e.b, v) }
func (e *ffEnc) str(s string)   { e.b = ffPutStr(e.b, s) }
func (e *ffEnc) b32(v [32]byte) { e.b = append(e.b, v[:]...) }
func (e *ffEnc) energy(v power.Energy) {
	e.i64(v.PJ)
	e.i64(v.ZJ)
}
func (e *ffEnc) ctrPatch(p ctrPatch) {
	e.bool(p.changed)
	e.u64(p.baseD)
	e.i64(int64(p.anchorOff))
	e.bool(p.running)
}

// ffDec is a bounds-checked, error-latching decoder: after the first
// malformation every read returns zero and err stays set, so decode
// paths need no per-read error plumbing.
type ffDec struct {
	b   []byte
	off int
	err error
}

func (d *ffDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("platform: bundle decode: "+format, args...)
	}
}

func (d *ffDec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b)-d.off < n {
		d.fail("truncated at offset %d (want %d bytes)", d.off, n)
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *ffDec) u64() uint64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

func (d *ffDec) i64() int64 { return int64(d.u64()) }

func (d *ffDec) bool() bool {
	s := d.take(1)
	if s == nil {
		return false
	}
	if s[0] > 1 {
		d.fail("bad bool byte %d", s[0])
		return false
	}
	return s[0] == 1
}

func (d *ffDec) b32() (v [32]byte) {
	copy(v[:], d.take(32))
	return v
}

func (d *ffDec) str() string {
	n := d.len(1)
	return string(d.take(n))
}

func (d *ffDec) energy() power.Energy {
	return power.Energy{PJ: d.i64(), ZJ: d.i64()}
}

func (d *ffDec) ctrPatch() ctrPatch {
	return ctrPatch{
		changed:   d.bool(),
		baseD:     d.u64(),
		anchorOff: sim.Duration(d.i64()),
		running:   d.bool(),
	}
}

// len reads a collection count and sanity-bounds it against the bytes
// remaining (each element needs at least minElem bytes), so a corrupt
// count cannot drive a huge allocation.
func (d *ffDec) len(minElem int) int {
	n := d.u64()
	if d.err != nil {
		return 0
	}
	if max := uint64(len(d.b)-d.off) / uint64(minElem); n > max {
		d.fail("count %d exceeds remaining payload", n)
		return 0
	}
	return int(n)
}
