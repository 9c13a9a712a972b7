package logio

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// TestFNVMatchesStdlib pins the open-coded fold to hash/fnv: persisted
// fingerprints depend on it bit for bit. The words cover every significant
// byte length from 0 to 8, one line each, with interior zero bytes the
// shortcut must fold like any other byte.
func TestFNVMatchesStdlib(t *testing.T) {
	ref := fnv.New64a()
	h := uint64(FNVOffset64)
	if h != ref.Sum64() {
		t.Fatalf("offset basis %#x, hash/fnv starts at %#x", h, ref.Sum64())
	}
	var buf [8]byte
	for _, v := range []uint64{
		0,
		1, 0xff,
		0x100, 0xffff,
		0x10000, 0xff00ff,
		1 << 24, 0xff0000ff,
		1 << 32, 0xff000000ff,
		1 << 40, 0xff00000000ff,
		1 << 48, 0xff0000000000ff,
		1 << 56, 0x00ff00ff00ff00ff, 0x0102030405060708, ^uint64(0),
	} {
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

// TestFNVPowers recomputes the literal table FNVFold64 multiplies by.
func TestFNVPowers(t *testing.T) {
	p := uint64(1)
	for k, got := range fnvPow {
		if got != p {
			t.Errorf("fnvPow[%d] = %d, prime^%d = %d", k, got, k, p)
		}
		p *= fnvPrime64
	}
}

// FuzzFNVFold64 checks the fold against hash/fnv resumed from state h. An
// FNV-64a state is its whole running hash, so the reference is hash/fnv's
// marshaled state with h spliced in, fed v's eight little-endian bytes.
func FuzzFNVFold64(f *testing.F) {
	f.Add(uint64(FNVOffset64), uint64(0))
	f.Add(uint64(FNVOffset64), uint64(1<<56))
	f.Add(uint64(0), uint64(0x00ff00ff00ff00ff))
	f.Add(^uint64(0), uint64(0x0102030405060708))
	f.Fuzz(func(t *testing.T, h, v uint64) {
		ref := fnv.New64a()
		state, err := ref.(interface{ MarshalBinary() ([]byte, error) }).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint64(state[len(state)-8:], h)
		if err := ref.(interface{ UnmarshalBinary([]byte) error }).UnmarshalBinary(state); err != nil {
			t.Fatal(err)
		}
		if ref.Sum64() != h {
			t.Fatalf("resumed hash/fnv at %#x, want %#x", ref.Sum64(), h)
		}
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		ref.Write(buf[:])
		if got := FNVFold64(h, v); got != ref.Sum64() {
			t.Fatalf("FNVFold64(%#x, %#x) = %#x, hash/fnv %#x", h, v, got, ref.Sum64())
		}
	})
}

// foldSink keeps the benchmark folds from being optimized away.
var foldSink uint64

// BenchmarkFold measures the fold in the two shapes that dominate its calls:
// event is core.FoldEvent (thread id, op, object id, status: four words of one
// or two significant bytes), delivery is an XPipe delivery stamp in
// recvBatch (eight words: ids, sequence numbers and turn counts).
func BenchmarkFold(b *testing.B) {
	b.Run("event", func(b *testing.B) {
		h := uint64(FNVOffset64)
		for i := 0; i < b.N; i++ {
			h = FNVFold64(h, uint64(i&7))
			h = FNVFold64(h, 3)
			h = FNVFold64(h, uint64(i&0x3ff))
			h = FNVFold64(h, 0)
		}
		foldSink = h
	})
	b.Run("delivery", func(b *testing.B) {
		h := uint64(FNVOffset64)
		for i := 0; i < b.N; i++ {
			turn := uint64(i)
			for _, w := range [...]uint64{2, turn >> 1, 0, 1, turn >> 1, turn >> 2, turn, turn >> 2} {
				h = FNVFold64(h, w)
			}
		}
		foldSink = h
	})
}
