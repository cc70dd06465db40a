package fleet

import (
	"sync/atomic"

	"odrips/internal/memostore"
	"odrips/internal/platform"
)

// The fleet composition root: the process-wide shared memo plane that
// long-lived callers (the load harness, a fleet service loop) use so
// that memo classes warmed by one job accelerate every later job. The
// plane is bounded (platform.DefaultMemoPlaneClasses) and every method
// is concurrency-safe; jobs that need byte-identical memo statistics
// pass their own quiescent plane to Run instead.
//
//odrips:allow globalstate the process composition root for fleet jobs: one lazily built shared memo plane behind an atomic pointer, bounded by the plane's own LRU and safe for concurrent jobs
var root struct {
	plane atomic.Pointer[platform.MemoPlane]
}

// DefaultPlane returns the process-wide shared memo plane, creating it
// (detached from disk, default class bound) on first use.
func DefaultPlane() *platform.MemoPlane {
	if p := root.plane.Load(); p != nil {
		return p
	}
	fresh := platform.NewMemoPlane(nil, 0)
	if root.plane.CompareAndSwap(nil, fresh) {
		return fresh
	}
	return root.plane.Load()
}

// SetDefaultPlane replaces the process-wide plane — wiring, called once
// at startup by binaries that want persistence-backed or custom-bounded
// sharing (and by tests to isolate).
func SetDefaultPlane(p *platform.MemoPlane) {
	root.plane.Store(p)
}

// PlaneFor builds a memo plane over store sized for the job: at least
// Spec.PlaneClasses, and never smaller than the job's own memo class
// count (an undersized plane thrashes — correct, but it re-simulates
// what it evicts). One-shot CLI runs use this; Run(s, nil) does the
// same sizing over a detached plane.
func PlaneFor(s Spec, store *memostore.Store) (*platform.MemoPlane, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	base, err := baseConfig(s.Preset)
	if err != nil {
		return nil, err
	}
	return platform.NewMemoPlane(store, max(s.PlaneClasses, memoClassCount(s, base))), nil
}
