package logio

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// TestFNVMatchesStdlib pins the open-coded fold to hash/fnv: persisted
// fingerprints depend on it bit for bit.
func TestFNVMatchesStdlib(t *testing.T) {
	ref := fnv.New64a()
	h := uint64(FNVOffset64)
	if h != ref.Sum64() {
		t.Fatalf("offset basis %#x, hash/fnv starts at %#x", h, ref.Sum64())
	}
	var buf [8]byte
	for _, v := range []uint64{0, 1, 0xff, 0x0102030405060708, ^uint64(0)} {
		binary.LittleEndian.PutUint64(buf[:], v)
		ref.Write(buf[:])
		h = FNVFold64(h, v)
		if h != ref.Sum64() {
			t.Fatalf("after folding %#x: %#x, hash/fnv %#x", v, h, ref.Sum64())
		}
	}
	raw := []byte("payload \x00\xff bytes")
	ref.Write(raw)
	if h = FNVFoldBytes(h, raw); h != ref.Sum64() {
		t.Fatalf("after folding bytes: %#x, hash/fnv %#x", h, ref.Sum64())
	}
}
