package qithread

// OffloadThreshold is the declared Work from which a thread offloads.
const OffloadThreshold int64 = offloadThreshold

// SetOffloadMin makes threads offload every Work of at least n units — 1
// forces it, a huge n disables it — until the returned function restores the
// threshold. It is a seam for this package's tests, not a knob: call it only
// while no run is in flight.
func SetOffloadMin(n int64) (restore func()) {
	old := offloadMin
	offloadMin = n
	return func() { offloadMin = old }
}

// SetQuiescenceYields bounds the yields a checkpoint boundary spends driving
// its domain to quiescence at n until the returned function restores the
// bound. It is a seam for this package's tests: call it only while no run is
// in flight.
func SetQuiescenceYields(n int) (restore func()) {
	old := maxQuiescenceYields
	maxQuiescenceYields = n
	return func() { maxQuiescenceYields = old }
}
