// Package globalstate is an odrips-vet test fixture: package-level mutable
// process state in internal/*.
package globalstate

import "sync"

// Bad: the type itself is shared-mutable, however it is accessed.
var mu sync.Mutex // want globalstate

// Bad: a plain var demonstrably written at runtime.
var count int // want globalstate

// Bad: a seeded table that a function later mutates.
var registry = map[string]int{"a": 1} // want globalstate

// Bad: sync state buried inside a struct type.
var pool struct { // want globalstate
	once  sync.Once
	items []string
}

// Bad: a pointer to lock-guarded state (a package-level cache).
var table = &guarded{} // want globalstate

type guarded struct {
	mu sync.Mutex
	m  map[string]int
}

// Good: read-only seeded values, never written after initialization.
var names = [...]string{"alpha", "beta"}
var limit = 64

// Allowed shows the audited escape hatch for composition-root state.
//
//odrips:allow globalstate fixture exercises the allow path
var allowed sync.Once

// Bump mutates the package-level state the write check flags.
func Bump() {
	count++
	registry["b"] = 2
}

// Local state is fine: owned by the caller's frame.
func Local() int {
	var localMu sync.Mutex
	localMu.Lock()
	defer localMu.Unlock()
	n := limit
	for range names {
		n++
	}
	pool.once.Do(func() {})
	return n
}
