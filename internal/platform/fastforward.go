package platform

import (
	"fmt"
	"sync/atomic"

	"odrips/internal/mee"
	"odrips/internal/memostore"
	"odrips/internal/pmu"
	"odrips/internal/power"
	"odrips/internal/sim"
)

// This file is the steady-state fast-forward engine (DESIGN.md §12).
// Connected-standby runs are long sequences of near-identical cycles; the
// engine memoizes the two kinds of redundancy they carry:
//
//   - MEE op replay: the per-cycle context save/restore through the MEE is
//     a strictly periodic op sequence whose observable effects (traffic
//     counters, latency, root-counter advance) repeat exactly. After one
//     period is recorded, later saves/restores advance the counters
//     arithmetically and skip the crypto and DRAM traffic
//     (mee.OpRecord/ReplayOp), with ReplayMaterialize/ReplayWarm
//     rebuilding the canonical bytes before any real engine op. Three ops
//     are recorded: a new engine's first save (the fresh save: root 0,
//     region just formatted), the canonical save from the post-restore
//     state, and the fresh-import restore. A replayed fresh save leaves
//     root = DataBlocks, the k = 1 state ReplayMaterialize rebuilds.
//
//   - Cycle replay: when the full behavioral fingerprint of the platform
//     at a cycle boundary recurs together with the same workload.Cycle
//     parameters, the whole cycle is replayed as exact fixed-point deltas
//     (energy, residency, latencies, counters, flow-trace steps) over a
//     bulk scheduler time advance.
//
// Both layers are gated per cycle on a clean fault plane (nothing left to
// inject), and each on what may be queued at the boundary:
//
//   - MEE op replay needs no *foreign* event pending. Events a device
//     model schedules with sim.Scheduler.AfterPeripheral touch only device
//     state, LTR and GPIO (the internal/device contract), so they cannot
//     observe the DRAM bytes or engine state a replayed op leaves stale.
//     Anything else — a tamper through Mem(), an analyzer ticker, a fault
//     event — keeps the cycle's ops real.
//
//   - Cycle replay needs an empty queue: a skipped cycle has no events to
//     dispatch, and device arrivals drawn from math/rand never let a
//     whole-cycle fingerprint recur anyway.
//
// Every replayed quantity is integer/fixed-point exact, so results are
// byte-identical to full simulation.
//
// Op records are shared across platforms on the ffBundle both attach
// paths hand out: a platform adopts the bundle's record the first time it
// needs one and publishes its own the first time it records one (first
// publisher wins), so a fresh platform of a seen config replays even its
// first save. Sharing is sound because an op's record depends only on
// what the engine walks, never on the bytes: exact-Config bundles hold
// identically built platforms, and the seed a plane class zeroes moves
// only the context bytes and the key, while traffic, and so latency, is a
// function of the region's size. -fastforward=verify diffs every real op
// against the record, adopted or not. The records stay in-process; the
// bundle codec does not carry them.
//
// Mem() hands out the DRAM module, through which a caller may read or
// tamper with the protected region at any time. It therefore realizes any
// virtual MEE state first and latches ffState.memExposed, after which the
// platform neither replays an op or cycle nor adopts a record.

// FFMode selects the fast-forward engine's behavior.
type FFMode int32

const (
	// FFOn memoizes and replays steady-state work (the default).
	FFOn FFMode = iota
	// FFOff always simulates in full.
	FFOff
	// FFVerify simulates in full and diffs every memoized quantity
	// against the record, failing the run on any divergence.
	FFVerify
)

// String renders the flag form.
func (m FFMode) String() string {
	switch m {
	case FFOff:
		return "off"
	case FFVerify:
		return "verify"
	default:
		return "on"
	}
}

// ParseFFMode parses the -fastforward flag values on|off|verify.
func ParseFFMode(s string) (FFMode, error) {
	switch s {
	case "on":
		return FFOn, nil
	case "off":
		return FFOff, nil
	case "verify":
		return FFVerify, nil
	}
	return FFOn, fmt.Errorf("platform: fast-forward mode %q (want on, off, or verify)", s)
}

// defaultFFMode is deliberately not part of Config: the whole point of the
// engine is that results are byte-identical across modes, so the mode must
// not leak into Result.Config. That same argument is why a process-wide
// default is sound to keep at all — the knob selects how results are
// computed, never what they are.
//
//odrips:allow globalstate the -fastforward flag's process default: set once by CLI wiring, and provably output-invariant (mode never changes results, only how they are computed)
var defaultFFMode atomic.Int32

// SetDefaultFastForward sets the mode platforms are created with.
func SetDefaultFastForward(m FFMode) { defaultFFMode.Store(int32(m)) }

// DefaultFastForward returns the mode platforms are created with.
func DefaultFastForward() FFMode { return FFMode(defaultFFMode.Load()) }

// SetFastForward overrides this platform's mode. Illegal mid-flow.
func (p *Platform) SetFastForward(m FFMode) error {
	if p.inFlow {
		return fmt.Errorf("platform: SetFastForward during a flow")
	}
	p.ff.mode = m
	return nil
}

// FFStats reports what the fast-forward engine did during a run.
type FFStats struct {
	// MEEOpsReplayed counts context saves/restores replayed from the op
	// memo; Materializations counts canonical-state rebuilds before a
	// real engine op.
	MEEOpsReplayed   uint64
	Materializations uint64

	// CyclesRecorded counts boundary fingerprints memoized;
	// CyclesReplayed counts whole cycles fast-forwarded.
	CyclesRecorded uint64
	CyclesReplayed uint64
}

// FFStats returns the engine's counters so far.
func (p *Platform) FFStats() FFStats { return p.ff.stats }

// ffState is the per-platform fast-forward state.
type ffState struct {
	mode FFMode

	// cycleOK is latched at each cycle boundary: the upcoming cycle may
	// record into or replay from the memo.
	cycleOK bool

	// MEE op memo. meePrimed marks the live engine as being in the
	// canonical post-import+restore state (the state every recorded save
	// starts from); meeVirtual marks DRAM bytes and the metadata cache
	// as stale because ops were replayed over them. ops holds this
	// platform's records, local or adopted from the shared bundle.
	meePrimed  bool
	meeVirtual bool
	ops        [ffNumOps]ffOpRec

	// memExposed latches once Mem() has handed out the DRAM module: the
	// caller may observe or change the protected region at any time, so
	// no MEE op or cycle on this platform replays or adopts again.
	memExposed bool

	// Cycle memo (fingerprint keyed), populated lazily, plus reusable
	// scratch for the fingerprint serialization and scaled replay deltas.
	records     map[ffKey]*cycleRecord
	rec         *cycleRecording // in-progress recording, nil outside one
	fpBuf       []byte
	nomScratch  []power.Energy
	battScratch []power.Energy

	// Persistent memo plumbing (ffpersist.go): the process default store
	// this platform attached to, the shared bundle for its config, and —
	// under -memocache=verify — the disk-loaded keys that must be
	// re-simulated and diffed instead of replayed.
	store      *memostore.Store
	persist    *ffBundle
	verifyKeys map[ffKey]bool

	// recordCap, when nonzero, overrides the per-platform cycle-class
	// cap (ffRecordCap / ffPersistRecordCap). The memo plane sets it on
	// attach: a platform seeded with hundreds of adopted records must
	// still be allowed to record the classes the plane does not cover.
	recordCap int

	stats FFStats
}

// ffFaultsClean reports that no injection remains unfired and no forced
// verification failure is pending: the fault plane can no longer influence
// this run's remaining cycles. Conservative on purpose — an unfired
// injection for a later cycle also disables the memo now, because a replay
// would leave DRAM/cache state stale for that later cycle's real work
// until realized, and recording next to an armed plane is not worth the
// asymmetry. Once every injection has fired, recording resumes.
func (p *Platform) ffFaultsClean() bool {
	fp := p.fplane
	if fp == nil {
		return true
	}
	if fp.meeForce {
		return false
	}
	for _, fired := range fp.fired {
		if !fired {
			return false
		}
	}
	return true
}

// ffLatchCycle latches, at a cycle boundary, whether the upcoming cycle
// may record or replay MEE ops. Only peripheral events may be pending: a
// foreign one (an externally scheduled mutation, an analyzer ticker)
// could read or write the context region mid-cycle, so such cycles run
// their ops in full. Whole-cycle replay keeps the stricter empty-queue
// gate of ffCycleEligible. A platform whose DRAM was handed out through
// Mem() never memoizes again.
func (p *Platform) ffLatchCycle() {
	p.ff.cycleOK = p.ff.mode != FFOff && !p.ff.memExposed &&
		p.sched.Pending() == p.sched.PeripheralPending() && p.ffFaultsClean()
}

// ffOpKind names one of the three MEE ops the memo records.
type ffOpKind int

const (
	// ffFreshSave is the first save of a newly built engine: root 0,
	// region just formatted, cache as mee.NewFromImage left it.
	ffFreshSave ffOpKind = iota
	// ffSave is a canonical save from the post-restore state.
	ffSave
	// ffRestore is a fresh-import sequential restore of a canonical region.
	ffRestore
	ffNumOps
)

func (k ffOpKind) String() string {
	return [ffNumOps]string{"fresh save", "save", "restore"}[k]
}

// ffOpRec is one recorded MEE op and the latency it charged.
type ffOpRec struct {
	op  mee.OpRecord
	lat sim.Duration
	ok  bool
}

// ffOp returns this platform's record of kind k, adopting the shared
// bundle's the first time the platform has none of its own.
func (p *Platform) ffOp(k ffOpKind) ffOpRec {
	ff := &p.ff
	if !ff.ops[k].ok && ff.persist != nil {
		ff.ops[k] = ff.persist.op(k)
	}
	return ff.ops[k]
}

// ffNoteOp takes a canonical op that ran in full: the first one of its
// kind becomes the record (published to the shared bundle), later ones
// are diffed against it under -fastforward=verify.
func (p *Platform) ffNoteOp(k ffOpKind, op mee.OpRecord, lat sim.Duration) error {
	ff := &p.ff
	rec := p.ffOp(k)
	if !rec.ok {
		ff.ops[k] = ffOpRec{op: op, lat: lat, ok: true}
		ff.persist.publishOp(k, ff.ops[k])
		return nil
	}
	if ff.mode == FFVerify && (op != rec.op || lat != rec.lat) {
		return fmt.Errorf("fastforward verify: %v diverged from memo (lat %v vs %v, op %+v vs %+v)",
			k, lat, rec.lat, op, rec.op)
	}
	return nil
}

// ffRealize rebuilds canonical MEE state before a real engine operation:
// materialize the DRAM bytes the replayed saves would have produced and,
// when the engine should be in the post-restore state, re-warm the
// metadata cache by re-executing the skipped sequential read.
func (p *Platform) ffRealize() error {
	ff := &p.ff
	if !ff.meeVirtual || p.eng == nil {
		return nil
	}
	if err := p.eng.ReplayMaterialize(p.ctxImage); err != nil {
		return err
	}
	if ff.meePrimed {
		if err := p.eng.ReplayWarm(p.restoreBuf, len(p.ctxImage)); err != nil {
			return err
		}
	}
	ff.meeVirtual = false
	ff.stats.Materializations++
	return nil
}

// ffSaveCtxDRAM runs — or replays — the MEE context save, returning its
// latency. Only a fresh engine's first save and canonical saves (from the
// primed post-restore state), in a memo-eligible cycle, are recorded or
// compared.
func (p *Platform) ffSaveCtxDRAM() (sim.Duration, error) {
	ff := &p.ff
	kind, memo := ffSave, ff.cycleOK && ff.meePrimed
	if p.eng.RootCounter() == 0 {
		kind, memo = ffFreshSave, ff.cycleOK
	}
	if memo && ff.mode == FFOn {
		if rec := p.ffOp(kind); rec.ok {
			p.eng.ReplayOp(rec.op)
			ff.meePrimed = false
			ff.meeVirtual = true
			ff.stats.MEEOpsReplayed++
			return rec.lat, nil
		}
	}
	if err := p.ffRealize(); err != nil {
		return 0, err
	}
	ff.meePrimed = false
	var snap mee.OpCapture
	if memo {
		snap = p.eng.CaptureOp()
	}
	tgt := &pmu.DRAMTarget{Engine: p.eng}
	lat, err := tgt.Save(p.ctxImage)
	if err != nil {
		return 0, err
	}
	if memo {
		if err := p.ffNoteOp(kind, p.eng.DeltaSince(snap), lat); err != nil {
			return 0, err
		}
	}
	return lat, nil
}
