package domain

import "runtime"

// OS-thread pinning for scheduler domains. A domain serializes its own
// threads through the turn mechanism, so at any instant it keeps at most one
// goroutine runnable; independent domains are the unit of real-core
// parallelism. Pinning each domain's root goroutines to OS threads keeps a
// domain's hot handoff chain (the park-first grant channel of
// internal/core) on a stable thread instead of migrating between Ps, which
// is what lets a multi-domain program scale in wall-clock time on hosts with
// more cores than domains. Pinning never affects the schedule: it changes
// where a goroutine runs, never the deterministic order in which turns are
// granted.

// PinWorthwhile reports whether OS-thread pinning can pay off: with a single
// proc every domain shares one core and pinning only adds thread churn.
func PinWorthwhile() bool { return runtime.GOMAXPROCS(0) > 1 }

// RunPinned executes fn with the calling goroutine locked to its OS thread,
// unlocking on return (also on panic) so pooled goroutines can be reused
// unpinned afterwards.
func RunPinned(fn func()) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	fn()
}
