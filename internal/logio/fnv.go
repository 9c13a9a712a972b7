package logio

import "math/bits"

// FNV-64a, bit-identical to hash/fnv. Every fingerprint in the system — the
// running schedule hash (internal/core), trace.Hash, the cross-domain
// delivery hashes (pipe.go) and the ingress admit/shed hashes — folds
// fixed-width fields one at a time on a hot path, so the fold is open-coded
// here once instead of going through hash.Hash64 and a scratch buffer per
// field. The values are persisted (.fp sidecars, checkpoints, 705 golden
// schedules), which is why the fold lives beside the log formats and its
// values must never change; how it computes them may.
const (
	// FNVOffset64 is the initial state of an FNV-64a hash.
	FNVOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvPow[k] is fnvPrime64^k mod 2^64. The entries are literals because the
// untyped constant product overflows uint64 from k = 4 on
// (TestFNVPowers recomputes them).
var fnvPow = [9]uint64{
	1,
	1099511628211,
	956575116354345,
	624165263380053675,
	11527715348014283921,
	913917546033277539,
	15895002104753931833,
	14218562807570617051,
	2232315406967589409,
}

// FNVFold64 folds one uint64 into an FNV-64a state as its eight bytes in
// little-endian order.
//
// The words folded here are thread ids, op codes, object ids and counts with
// one to three significant bytes, so the fold pays only for those. FNV-1a
// folds a zero byte as h = (h ^ 0) * prime, a plain multiply, so the k zero
// bytes above the last significant one are a single multiply by prime^k, and
// the last significant byte's own multiply joins it: after the n-1 lower
// bytes, v is that byte and the rest is (h ^ v) * prime^(9-n). Multiplication
// mod 2^64 is associative, so the result is the eight-step fold's exactly.
// n comes from bits.Len64, not a loop that stops at v == 0, so the step count
// is arithmetic rather than a branch per byte; v|1 makes a zero word one byte
// long.
func FNVFold64(h, v uint64) uint64 {
	n := (bits.Len64(v|1) + 7) >> 3
	for i := 1; i < n; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime64
		v >>= 8
	}
	return (h ^ v) * fnvPow[9-n]
}

// FNVFoldBytes folds raw bytes into an FNV-64a state.
func FNVFoldBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}
