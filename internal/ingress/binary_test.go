package ingress

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"strings"
	"testing"
)

// synthLog builds a deterministic log shaped like a real recording: sparse
// epochs, mixed payload sizes, several sources.
func synthLog(batches int) *Log {
	l := &Log{}
	epoch := int64(0)
	seed := uint64(12345)
	for i := 0; i < batches; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		epoch += 1 + int64(seed%3)
		n := 1 + int(seed>>8%5)
		b := Batch{Epoch: epoch}
		for j := 0; j < n; j++ {
			var data []byte
			if (i+j)%7 != 0 { // every 7th event has an empty payload
				data = bytes.Repeat([]byte{byte(i), byte(j)}, 1+(i+j)%40)
			}
			b.Events = append(b.Events, Event{Source: (i + j) % 4, Data: data})
		}
		l.Batches = append(l.Batches, b)
	}
	return l
}

func logsEqual(t *testing.T, got, want *Log) {
	t.Helper()
	if len(got.Batches) != len(want.Batches) {
		t.Fatalf("got %d batches, want %d", len(got.Batches), len(want.Batches))
	}
	for i := range want.Batches {
		gb, wb := got.Batches[i], want.Batches[i]
		if gb.Epoch != wb.Epoch || len(gb.Events) != len(wb.Events) {
			t.Fatalf("batch %d: got epoch %d (%d events), want epoch %d (%d events)",
				i, gb.Epoch, len(gb.Events), wb.Epoch, len(wb.Events))
		}
		for j := range wb.Events {
			ge, we := gb.Events[j], wb.Events[j]
			if ge.Source != we.Source || !bytes.Equal(ge.Data, we.Data) {
				t.Fatalf("batch %d event %d: got %v, want %v", i, j, ge, we)
			}
		}
	}
}

func TestBinaryLogRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 50, 500} {
		l := synthLog(n)
		var buf bytes.Buffer
		if err := l.SaveBinary(&buf); err != nil {
			t.Fatalf("n=%d: SaveBinary: %v", n, err)
		}
		got, err := LoadLog(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("n=%d: LoadLog: %v", n, err)
		}
		logsEqual(t, got, l)
	}
}

// TestBinaryLogPayloadViews: a loaded batch's payloads are views into one
// shared payload slab and its events a view into one shared event slab. Each
// view is capacity-limited, so a consumer appending to one event's Data, or
// to one batch's Events, reallocates instead of overwriting its neighbour in
// the slab; empty payloads stay nil; and the loader allocates per slab, not
// per batch or per event.
func TestBinaryLogPayloadViews(t *testing.T) {
	want := synthLog(200)
	var buf bytes.Buffer
	if err := want.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	for i, b := range got.Batches {
		if cap(b.Events) != len(b.Events) {
			t.Fatalf("batch %d: events have %d spare slots of their slab", i, cap(b.Events)-len(b.Events))
		}
		_ = append(b.Events, Event{Source: 3, Data: []byte{0xee}})
		for j, e := range b.Events {
			events++
			switch {
			case len(want.Batches[i].Events[j].Data) == 0 && e.Data != nil:
				t.Fatalf("batch %d event %d: empty payload loaded as non-nil", i, j)
			case cap(e.Data) != len(e.Data):
				t.Fatalf("batch %d event %d: payload has %d spare bytes of its slab", i, j, cap(e.Data)-len(e.Data))
			}
			_ = append(e.Data, 0xee, 0xee, 0xee)
		}
	}
	logsEqual(t, got, want)

	perLoad := testing.AllocsPerRun(5, func() {
		if _, err := LoadLog(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	// The doubling slabs of each kind, the Batches slice's growth and the
	// frame reader's fixed set-up: 34 at 200 batches. The frame reader
	// allocates nothing per frame, so a bound that grew with the batch count
	// would let a per-batch allocation back in unnoticed.
	if perLoad > 64 {
		t.Fatalf("loading %d events in %d batches made %v allocations, want at most 64", events, len(got.Batches), perLoad)
	}
}

func TestBinaryLogTruncationAndCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := synthLog(100).SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	header := len(logHeaderV2B) + 1
	for _, cut := range []int{header, header + 2, len(full) / 2, len(full) - 1} {
		if _, err := LoadLog(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d/%d bytes loaded without error", cut, len(full))
		}
	}
	for _, pos := range []int{header + 4, len(full) / 2, len(full) - 3} {
		mut := append([]byte(nil), full...)
		mut[pos] ^= 0x10
		if _, err := LoadLog(bytes.NewReader(mut)); err == nil {
			t.Errorf("bit flip at byte %d loaded without error", pos)
		}
	}
}

// v1Header opens testdata/v1.log, a log in the hex-text format this build
// refuses by name.
const v1Header = "qithread-ingress v1"

// TestLogFormatsPinned holds the writer to the bytes the parent of the
// one-declaration-per-schema change wrote for synthLog(40): testdata/v2b.qlog
// is that build's file (every frame is stored raw at this size, so the bytes
// do not depend on compress/flate) and the SHA-256 constant was recorded
// there too; the file must load to the log it was saved from. The same
// build's text log, testdata/v1.log, stays as the file LoadLog must refuse by
// name.
func TestLogFormatsPinned(t *testing.T) {
	l := synthLog(40)
	pinned := func(name, header, sha string) []byte {
		t.Helper()
		file, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(file); hex.EncodeToString(sum[:]) != sha {
			t.Errorf("testdata/%s is not the file the parent build wrote (sha256 %x)", name, sum)
		}
		if !strings.HasPrefix(string(file), header+"\n") {
			t.Errorf("testdata/%s does not start with %q", name, header)
		}
		return file
	}
	file := pinned("v2b.qlog", logHeaderV2B, "8ee6457a87a798b6385abb2cd8c096012b7fe7c214150a4ba562af5c1afa8a3a")
	var buf bytes.Buffer
	if err := l.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), file) {
		t.Error("v2b.qlog: the writer's output changed")
	}
	got, err := LoadLog(bytes.NewReader(file))
	if err != nil {
		t.Fatalf("LoadLog(testdata/v2b.qlog): %v", err)
	}
	logsEqual(t, got, l)

	v1 := pinned("v1.log", v1Header, "c59eb8852c14baf2d5cdab7b06d64534e8dfbc45d60c87b07b30e40e5bd0a722")
	if _, err := LoadLog(bytes.NewReader(v1)); err == nil || !strings.Contains(err.Error(), `"qithread-ingress v1" logs are no longer readable`) {
		t.Errorf("LoadLog(testdata/v1.log) = %v, want the refusal naming its header", err)
	}
}

// TestLogWritersEnforceBounds: what the loader refuses, the writer does not
// write. A source id past int32 used to go out through SaveBinary as a file
// loadLogBinary refused.
func TestLogWritersEnforceBounds(t *testing.T) {
	ev := []Event{{Source: 0}}
	for name, log := range map[string]*Log{
		"empty batch":          {Batches: []Batch{{Epoch: 1}}},
		"epoch zero":           {Batches: []Batch{{Epoch: 0, Events: ev}}},
		"epoch not increasing": {Batches: []Batch{{Epoch: 2, Events: ev}, {Epoch: 2, Events: ev}}},
		"negative source":      {Batches: []Batch{{Epoch: 1, Events: []Event{{Source: -1}}}}},
		"source past int32":    {Batches: []Batch{{Epoch: 1, Events: []Event{{Source: maxSource + 1}}}}},
	} {
		if err := log.SaveBinary(io.Discard); err == nil {
			t.Errorf("SaveBinary wrote a log with an %s", name)
		}
	}
}

func TestBinaryLogWriterMisuse(t *testing.T) {
	var buf bytes.Buffer
	bw, err := NewBinaryLogWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.AppendBatch(1, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if err := bw.AppendBatch(3, []Event{{Source: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := bw.AppendBatch(3, []Event{{Source: 0}}); err == nil {
		t.Fatal("non-monotone epoch accepted")
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err == nil {
		t.Fatal("double close succeeded")
	}
	got, err := LoadLog(bytes.NewReader(buf.Bytes()))
	if err != nil || len(got.Batches) != 1 {
		t.Fatalf("got %v batches, err %v", len(got.Batches), err)
	}
}

func FuzzLoadLog(f *testing.F) {
	v1, err := os.ReadFile("testdata/v1.log")
	if err != nil {
		f.Fatal(err)
	}
	var bin bytes.Buffer
	if err := synthLog(40).SaveBinary(&bin); err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	f.Add(bin.Bytes())
	f.Add([]byte(logHeaderV2B + "\n"))
	f.Add([]byte(logHeaderV2B + "\n\x04\x00ab\x01x\x00\x00\x00\x00\x00"))
	f.Add(append(bytes.Clone(bin.Bytes()), "junk"...)) // bytes after the terminator
	f.Add([]byte(v2bLog(mostPlausibleCount())))
	// The hex-text inputs that broke its loader (E28) are refusals now.
	f.Add([]byte(v1Header + "\nbatch 1 2\n0 -\n"))
	f.Add([]byte(v1Header + "\nbatch 1 1000000000000000\n"))
	f.Add([]byte(v1Header + "\nbatch 1 1000000000\n0 -\n"))
	f.Add([]byte(v1Header + "\nbatch 1 1\n1099511627776 -\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// LoadLog must never panic and never read a refused format; a loaded
		// log must be structurally sound (strictly increasing epochs,
		// non-empty batches), and what the loader accepts the writer writes
		// and the loader reads back.
		got, err := LoadLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		if head, _, _ := bytes.Cut(data, []byte("\n")); string(bytes.TrimSpace(head)) == v1Header {
			t.Fatalf("a %q file loaded", v1Header)
		}
		var buf bytes.Buffer
		if err := got.SaveBinary(&buf); err != nil {
			t.Fatalf("loaded log does not save: %v", err)
		}
		again, err := LoadLog(&buf)
		if err != nil {
			t.Fatalf("saved, the log does not reload: %v", err)
		}
		logsEqual(t, again, got)
		last := int64(0)
		for i, b := range got.Batches {
			if b.Epoch <= last {
				t.Fatalf("batch %d: epoch %d not after %d", i, b.Epoch, last)
			}
			if len(b.Events) == 0 {
				t.Fatalf("batch %d: empty", i)
			}
			last = b.Epoch
		}
	})
}

// mostPlausibleCount is a batch frame claiming the largest event count its
// size allows, half its bytes, past one event slab: the varints of epoch
// delta and count fill its first four bytes and zero bytes the rest, so the
// loader sizes the batch's events for the claim and then runs out of bytes two
// events short.
func mostPlausibleCount() []uint64 {
	const count = 1 << 15
	return append([]uint64{1, count}, make([]uint64, 2*count-4)...)
}

// BenchmarkLogLoad loads a 200,000-event v2b log, batches of 1 to 16 events
// with 8- to 64-byte payloads, and reports what a load allocates.
func BenchmarkLogLoad(b *testing.B) {
	const events = 200_000
	l := &Log{}
	seed := uint64(1)
	for epoch, n := int64(1), 0; n < events; epoch++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		batch := make([]Event, min(1+int(seed>>33%16), events-n))
		for i := range batch {
			batch[i] = Event{Source: (n + i) % 2, Data: bytes.Repeat([]byte{byte(n + i)}, 8+(n+i)%57)}
		}
		l.AppendBatch(epoch, batch)
		n += len(batch)
	}
	var buf bytes.Buffer
	if err := l.SaveBinary(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := LoadLog(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

func TestReplayerSkipTo(t *testing.T) {
	l := synthLog(10)
	r := NewReplayer(l)
	skipped := r.SkipTo(l.Batches[3].Epoch)
	if skipped != 4 {
		t.Fatalf("skipped %d batches, want 4", skipped)
	}
	snap, _ := r.next(l.Batches[4].Epoch, 0)
	if len(snap) != len(l.Batches[4].Events) {
		t.Fatalf("after SkipTo, next returned %d events, want batch 4's %d", len(snap), len(l.Batches[4].Events))
	}
	if r.SkipTo(1 << 40); r.pos != len(l.Batches) {
		t.Fatalf("SkipTo past the end left pos %d of %d", r.pos, len(l.Batches))
	}
}
