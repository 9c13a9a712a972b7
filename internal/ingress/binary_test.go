package ingress

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"strings"
	"testing"

	"qithread/internal/logio"
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

// TestBinaryLogTextEquivalence: the same log saved as text and binary loads
// back identical, and the binary form is smaller (hex payloads alone double
// the text size).
// TestBinaryLogPayloadViews: a loaded batch's payloads are views into one
// copy of its frame. Each is capacity-limited, so a consumer appending to one
// event's Data reallocates instead of overwriting the next event's bytes;
// empty payloads stay nil; and the loader allocates per batch, not per event.
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
		for j, e := range b.Events {
			events++
			switch {
			case len(want.Batches[i].Events[j].Data) == 0 && e.Data != nil:
				t.Fatalf("batch %d event %d: empty payload loaded as non-nil", i, j)
			case cap(e.Data) != len(e.Data):
				t.Fatalf("batch %d event %d: payload has %d spare bytes of its frame", i, j, cap(e.Data)-len(e.Data))
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
	// Three allocations per batch (frame copy, event slice, the frame
	// reader's checksum scratch) plus the Batches slice's growth and the
	// reader's fixed set-up; one per event on top of that was the old cost.
	if limit := float64(3*len(got.Batches) + 40); perLoad > limit {
		t.Fatalf("loading %d events in %d batches made %v allocations, want at most %v", events, len(got.Batches), perLoad, limit)
	}
}

func TestBinaryLogTextEquivalence(t *testing.T) {
	l := synthLog(300)
	var text, bin bytes.Buffer
	if err := l.Save(&text); err != nil {
		t.Fatal(err)
	}
	if err := l.SaveBinary(&bin); err != nil {
		t.Fatal(err)
	}
	fromText, err := LoadLog(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatalf("load text: %v", err)
	}
	fromBin, err := LoadLog(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatalf("load binary: %v", err)
	}
	logsEqual(t, fromBin, fromText)
	if bin.Len() >= text.Len() {
		t.Errorf("binary log (%d bytes) not smaller than text (%d bytes)", bin.Len(), text.Len())
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

// TestIngressLineLimit pins the shared-line-scanner satellite on the ingress
// side: the text loader still reads large payload lines (up to logio.MaxLine)
// and rejects over-limit ones with an actionable error.
func TestIngressLineLimit(t *testing.T) {
	okLine := logHeaderV1 + "\nbatch 1 1\n0 " + strings.Repeat("ab", 100*1024) + "\n"
	if _, err := LoadLog(strings.NewReader(okLine)); err != nil {
		t.Fatalf("200KB payload line failed to load: %v", err)
	}
	tooLong := logHeaderV1 + "\nbatch 1 1\n0 " + strings.Repeat("ab", logio.MaxLine) + "\n"
	_, err := LoadLog(strings.NewReader(tooLong))
	if err == nil {
		t.Fatal("over-limit line loaded without error")
	}
	if !strings.Contains(err.Error(), "line limit") {
		t.Fatalf("over-limit error %q does not name the line limit", err)
	}
}

// TestLogFormatsPinned holds both log writers to the bytes the parent of the
// one-declaration-per-schema change wrote for synthLog(40): testdata/ holds
// that build's two files (every binary frame is stored raw at this size, so
// the bytes do not depend on compress/flate) and the SHA-256 constants were
// recorded there too. Each file must also load to the log it was saved from.
func TestLogFormatsPinned(t *testing.T) {
	l := synthLog(40)
	for _, tc := range []struct {
		file, header, sha string
		save              func(io.Writer) error
	}{
		{"v1.log", logHeaderV1, "c59eb8852c14baf2d5cdab7b06d64534e8dfbc45d60c87b07b30e40e5bd0a722", l.Save},
		{"v2b.qlog", logHeaderV2B, "8ee6457a87a798b6385abb2cd8c096012b7fe7c214150a4ba562af5c1afa8a3a", l.SaveBinary},
	} {
		file, err := os.ReadFile("testdata/" + tc.file)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(file); hex.EncodeToString(sum[:]) != tc.sha {
			t.Errorf("testdata/%s is not the file the parent build wrote (sha256 %x)", tc.file, sum)
		}
		if !strings.HasPrefix(string(file), tc.header+"\n") {
			t.Errorf("testdata/%s does not start with %q", tc.file, tc.header)
		}
		var buf bytes.Buffer
		if err := tc.save(&buf); err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if !bytes.Equal(buf.Bytes(), file) {
			t.Errorf("%s: the writer's output changed", tc.file)
		}
		got, err := LoadLog(bytes.NewReader(file))
		if err != nil {
			t.Fatalf("LoadLog(testdata/%s): %v", tc.file, err)
		}
		logsEqual(t, got, l)
	}
}

// TestLogWritersEnforceBounds: what the loaders refuse, neither writer writes.
// Log.Save used to check nothing, and a source id past int32 went out through
// SaveBinary as a file loadLogBinary refused.
func TestLogWritersEnforceBounds(t *testing.T) {
	ev := []Event{{Source: 0}}
	big := make([]byte, maxTextHex/2+1)
	for name, tc := range map[string]struct {
		log      *Log
		textOnly bool
	}{
		"empty batch":          {log: &Log{Batches: []Batch{{Epoch: 1}}}},
		"epoch zero":           {log: &Log{Batches: []Batch{{Epoch: 0, Events: ev}}}},
		"epoch not increasing": {log: &Log{Batches: []Batch{{Epoch: 2, Events: ev}, {Epoch: 2, Events: ev}}}},
		"negative source":      {log: &Log{Batches: []Batch{{Epoch: 1, Events: []Event{{Source: -1}}}}}},
		"source past int32":    {log: &Log{Batches: []Batch{{Epoch: 1, Events: []Event{{Source: maxSource + 1}}}}}},
		"payload past a line":  {log: &Log{Batches: []Batch{{Epoch: 1, Events: []Event{{Source: maxSource, Data: big}}}}}, textOnly: true},
	} {
		if err := tc.log.Save(io.Discard); err == nil {
			t.Errorf("Save wrote a log with an %s", name)
		}
		if err := tc.log.SaveBinary(io.Discard); (err == nil) != tc.textOnly {
			t.Errorf("SaveBinary of a log with an %s: %v", name, err)
		}
	}
	// The largest event a text line holds round-trips through it.
	atLimit := &Log{Batches: []Batch{{Epoch: 1, Events: []Event{{Source: maxSource, Data: big[1:]}}}}}
	var buf bytes.Buffer
	if err := atLimit.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLog(&buf)
	if err != nil {
		t.Fatalf("the longest line Save writes does not load: %v", err)
	}
	logsEqual(t, got, atLimit)
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
	var text, bin bytes.Buffer
	l := synthLog(40)
	if err := l.Save(&text); err != nil {
		f.Fatal(err)
	}
	if err := l.SaveBinary(&bin); err != nil {
		f.Fatal(err)
	}
	f.Add(text.Bytes())
	f.Add(bin.Bytes())
	f.Add([]byte(logHeaderV2B + "\n"))
	f.Add([]byte(logHeaderV2B + "\n\x04\x00ab\x01x\x00\x00\x00\x00\x00"))
	f.Add([]byte(logHeaderV1 + "\nbatch 1 2\n0 -\n"))
	f.Add([]byte(logHeaderV1 + "\nbatch 1 1000000000000000\n"))
	f.Add([]byte(logHeaderV1 + "\nbatch 1 1000000000\n0 -\n"))
	f.Add([]byte(logHeaderV1 + "\nbatch 1 1\n1099511627776 -\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// LoadLog must never panic; a loaded log must be structurally sound
		// (strictly increasing epochs, non-empty batches) and the same log in
		// both codecs: what one loader accepts, both writers write and both
		// loaders read back.
		got, err := LoadLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		codecs := map[string]func(io.Writer) error{"text": got.Save, "binary": got.SaveBinary}
		for _, b := range got.Batches {
			for _, e := range b.Events {
				if 2*len(e.Data) > maxTextHex {
					delete(codecs, "text") // a frame holds a payload no text line does; Save says so
				}
			}
		}
		for name, save := range codecs {
			var buf bytes.Buffer
			if err := save(&buf); err != nil {
				t.Fatalf("loaded log does not save as %s: %v", name, err)
			}
			again, err := LoadLog(&buf)
			if err != nil {
				t.Fatalf("saved as %s, the log does not reload: %v", name, err)
			}
			logsEqual(t, again, got)
		}
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
