package logio

// FNV-64a, bit-identical to hash/fnv. Every fingerprint in the system — the
// running schedule hash (internal/core), trace.Hash, the cross-domain
// delivery hashes (pipe.go) and the ingress admit/shed hashes — folds
// fixed-width fields one at a time on a hot path, so the fold is open-coded
// here once instead of going through hash.Hash64 and a scratch buffer per
// field. The values are persisted (.fp sidecars, checkpoints, 705 golden
// schedules), which is why the fold lives beside the log formats and must
// never change.
const (
	// FNVOffset64 is the initial state of an FNV-64a hash.
	FNVOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// FNVFold64 folds one uint64 into an FNV-64a state as its eight bytes in
// little-endian order.
func FNVFold64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime64
		v >>= 8
	}
	return h
}

// FNVFoldBytes folds raw bytes into an FNV-64a state.
func FNVFoldBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}
