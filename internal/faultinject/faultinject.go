// Package faultinject provides deterministic, test-driven fault points for
// the training and persistence paths. Production code instruments a site with
//
//	if faultinject.Enabled() {
//	    if err := faultinject.Fire(faultinject.PersistRename, payload); err != nil {
//	        // behave as if the real failure happened here
//	    }
//	}
//
// and tests arm the point with Enable. With nothing armed the entire
// mechanism costs one atomic load per site, so the hooks can stay compiled
// into release binaries: the same code path that recovers from an injected
// crash is the one that recovers from a real one.
//
// Hooks are global to the process (fault points are reached from pooled
// worker goroutines, so plumbing per-call registries through the hot loops
// would defeat their zero-cost-when-idle design). Tests that arm hooks must
// therefore not run in parallel with other tests of the instrumented
// packages, and should defer Reset.
package faultinject

import (
	"sync"
	"sync/atomic"
)

// Point names an instrumented site. The constants below are the sites wired
// into internal/core; new sites only need a new name.
type Point string

const (
	// FitIter fires once per Fit iteration, before the factor updates, with
	// a *core.FitFault payload. Hooks may mutate the factors in place (to
	// simulate numerical corruption the divergence watchdog must catch) or
	// return an error to abort the fit.
	FitIter Point = "fit.iter"
	// PersistWrite fires after an atomic file write has buffered its payload
	// but before fsync — an injected kernel/disk error.
	PersistWrite Point = "persist.write"
	// PersistRename fires between the temp-file write and the rename that
	// publishes it — a simulated crash at the worst possible moment. The
	// instrumented writer must leave the previous file intact and the temp
	// file behind, exactly like a real crash.
	PersistRename Point = "persist.rename"
	// ShardWrite fires inside the row-shard writer (internal/store) after a
	// shard's payload is buffered but before fsync, with a
	// *store.ShardFault payload — an injected disk error mid-conversion.
	ShardWrite Point = "shard.write"
	// ShardRename fires between a store temp-file write and the rename that
	// publishes it (shards and the manifest alike) — a simulated crash that
	// must leave the directory openable-or-rejected, never silently torn.
	ShardRename Point = "shard.rename"
	// ManifestWrite fires before the shard manifest's fsync. The manifest is
	// written last, so a failure here leaves a directory with no manifest,
	// which Open must refuse.
	ManifestWrite Point = "manifest.write"
	// ServeBatch fires in the serving tier (internal/serve) before a
	// coalesced fold-in batch computes, with a *serve.BatchFault payload.
	// Hooks may return an error (the batch fails, its queued requests get
	// 500s), panic (the panic-isolation path must contain it to the batch),
	// or sleep (a slow compute the per-request deadlines must bound).
	ServeBatch Point = "serve.batch"
	// ServeRegistryLoad fires inside Registry.LoadFile between reading the
	// model file and registering it, with the path as payload. An injected
	// error must leave the previously served version untouched.
	ServeRegistryLoad Point = "serve.registry.load"
	// ServeWrite fires before an impute response body is written, with the
	// model name as payload. An injected error aborts the connection — the
	// client must see a transport error, never a torn JSON body.
	ServeWrite Point = "serve.write"
)

// Hook decides what happens when an armed point is hit. A non-nil error makes
// the instrumented site fail as if the real fault occurred.
type Hook func(payload any) error

var (
	armed atomic.Int32
	mu    sync.Mutex
	hooks = map[Point]Hook{}
)

// Enabled reports whether any fault point is armed. Instrumented sites check
// this first so the disarmed cost is a single atomic load.
func Enabled() bool { return armed.Load() > 0 }

// Enable arms p with h, replacing any previous hook at p.
func Enable(p Point, h Hook) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := hooks[p]; !ok {
		armed.Add(1)
	}
	hooks[p] = h
}

// Disable disarms p.
func Disable(p Point) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := hooks[p]; ok {
		delete(hooks, p)
		armed.Add(-1)
	}
}

// Reset disarms every point. Tests should defer this after Enable.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	for p := range hooks {
		delete(hooks, p)
	}
	armed.Store(0)
}

// Fire invokes the hook armed at p, if any, and returns its error. Disarmed
// points return nil.
func Fire(p Point, payload any) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	h := hooks[p]
	mu.Unlock()
	if h == nil {
		return nil
	}
	return h(payload)
}

// Once wraps h so only the first hit fires; later hits are no-ops. The
// canonical shape for "corrupt one iteration, then let recovery run".
func Once(h Hook) Hook {
	var done atomic.Bool
	return func(payload any) error {
		if done.Swap(true) {
			return nil
		}
		return h(payload)
	}
}

// OnCall wraps h so only the nth hit (1-based) fires.
func OnCall(n int, h Hook) Hook {
	var calls atomic.Int64
	return func(payload any) error {
		if calls.Add(1) != int64(n) {
			return nil
		}
		return h(payload)
	}
}

// Fail returns a hook that always fails with err.
func Fail(err error) Hook {
	return func(any) error { return err }
}

// Rand is a tiny splitmix64 generator for seed-driven faults: the same seed
// always corrupts the same cell, so every injected failure reproduces
// exactly. It deliberately does not depend on math/rand stream ordering.
type Rand struct{ state uint64 }

// NewRand returns a deterministic generator for seed.
func NewRand(seed int64) *Rand {
	return &Rand{state: uint64(seed) ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next raw 64-bit value.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4b5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n). It panics when n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("faultinject: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}
