package trace

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"qithread/internal/core"
	"qithread/internal/logio"
)

// synthSchedule builds a deterministic, schedule-shaped event stream: a few
// threads ping-ponging over a few objects with occasional blocks/returns,
// like a real trace (which is what the delta encoding is tuned for).
func synthSchedule(n int) []core.Event {
	out := make([]core.Event, n)
	for i := range out {
		tid := int32((i * 7) % 5)
		e := core.Event{
			TID: tid,
			Op:  core.OpMutexLock,
			Obj: uint64(3 + (i*3)%4),
		}
		switch i % 11 {
		case 3:
			e.Op, e.Status = core.OpCondWait, core.StatusBlocked
		case 4:
			e.Op, e.Status = core.OpCondWait, core.StatusReturn
		case 7:
			e.Op, e.Obj = core.OpYield, 0
		}
		if i%97 == 0 {
			e.Domain = int32(1 + i%3)
		}
		out[i] = e
	}
	return out
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 100, frameEvents, frameEvents + 1, 3*frameEvents + 17} {
		events := synthSchedule(n)
		var buf bytes.Buffer
		if err := SaveBinary(&buf, events); err != nil {
			t.Fatalf("n=%d: SaveBinary: %v", n, err)
		}
		got, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("n=%d: Load: %v", n, err)
		}
		if len(got) != len(events) {
			t.Fatalf("n=%d: loaded %d events, want %d", n, len(got), len(events))
		}
		for i := range got {
			if got[i] != events[i] {
				t.Fatalf("n=%d: event %d: got %+v, want %+v", n, i, got[i], events[i])
			}
		}
	}
}

// TestBinaryTextEquivalence is the cross-encoding contract: the same events
// saved as text and as binary load back identical, so both hash identically.
func TestBinaryTextEquivalence(t *testing.T) {
	events := synthSchedule(5000)
	var text, bin bytes.Buffer
	if err := Save(&text, events); err != nil {
		t.Fatal(err)
	}
	if err := SaveBinary(&bin, events); err != nil {
		t.Fatal(err)
	}
	fromText, err := Load(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatalf("load text: %v", err)
	}
	fromBin, err := Load(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatalf("load binary: %v", err)
	}
	if ht, hb := Hash(fromText), Hash(fromBin); ht != hb {
		t.Fatalf("hash mismatch: text %016x, binary %016x", ht, hb)
	}
	if bin.Len() >= text.Len() {
		t.Errorf("binary encoding (%d bytes) not smaller than text (%d bytes)", bin.Len(), text.Len())
	}
}

func TestBinaryTruncationDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveBinary(&buf, synthSchedule(300)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	header := len(scheduleHeaderV3B) + 1
	for _, cut := range []int{header, header + 1, header + 5, len(full) / 2, len(full) - 5, len(full) - 1} {
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d/%d bytes loaded without error", cut, len(full))
		}
	}
}

func TestBinaryCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveBinary(&buf, synthSchedule(300)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	header := len(scheduleHeaderV3B) + 1
	for _, pos := range []int{header + 3, header + 20, len(full) - 3} {
		mut := append([]byte(nil), full...)
		mut[pos] ^= 0x40
		if _, err := Load(bytes.NewReader(mut)); err == nil {
			t.Errorf("bit flip at byte %d loaded without error", pos)
		}
	}
}

// rawSchedule frames hand-built payloads as a v3b file.
func rawSchedule(t *testing.T, payloads ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(scheduleHeaderV3B + "\n")
	fw := logio.NewFrameWriter(&buf)
	for _, p := range payloads {
		if err := fw.WriteFrame(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBinaryLoadErrors pins every structural check of the binary loader with
// its diagnostic. The damage sits in frame 1, behind a valid frame 0: the
// loader reads all frames before it decodes any, and both passes must name
// the frame they rejected.
func TestBinaryLoadErrors(t *testing.T) {
	good := []byte{2, byte(core.OpMutexLock), 0, 1, 3, 0, byte(core.OpMutexUnlock), flagSameTID | flagSameObj | flagSameDomain}
	if evs, err := Load(bytes.NewReader(rawSchedule(t, good, good))); err != nil || len(evs) != 4 || evs[3].TID != 1 {
		t.Fatalf("valid two-frame file: %v, %+v", err, evs)
	}
	valid := rawSchedule(t, good, good)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-3] ^= 0x40 // inside frame 1's CRC
	for _, tc := range []struct {
		name string
		file []byte
		want string
	}{
		{"zero count", rawSchedule(t, good, []byte{0, 1, 0}), "schedule frame 1: implausible event count 0 for a 3-byte frame"},
		{"count beyond payload", rawSchedule(t, good, []byte{9, 1, 0x1c}), "schedule frame 1: implausible event count 9 for a 3-byte frame"},
		{"unknown flag", rawSchedule(t, good, []byte{1, 1, 0x20 | 0x1c}), "schedule frame 1: unknown flag bits 0x3c"},
		{"bad status", rawSchedule(t, good, []byte{1, 1, 0x1f}), "schedule frame 1: bad event status 3"},
		{"thread id range", rawSchedule(t, good, []byte{1, 1, 0x18, 0xff, 0xff, 0xff, 0xff, 0x0f}), "schedule frame 1: thread id 4294967295 out of range"},
		{"domain id past int32", rawSchedule(t, good, []byte{1, 1, 0x0c, 0x80, 0x80, 0x80, 0x80, 0x08}), "schedule frame 1: domain id 2147483648 out of range"},
		{"short event", rawSchedule(t, good, []byte{2, 1, 0x1c, 1}), "schedule frame 1: logio: corrupt record: unexpected end of frame"},
		{"trailing bytes", rawSchedule(t, good, []byte{1, 1, 0x1c, 7, 7}), "schedule frame 1: 2 trailing bytes after 1 events"},
		{"bad crc", flipped, "schedule frame 1: logio: frame checksum mismatch"},
		{"no terminator", valid[:len(valid)-1], "schedule frame 2: logio: truncated log: missing frame header"},
		// Two 14-byte frames and the terminator, then a second file.
		{"bytes after the terminator", append(slices.Clone(valid), "GARBAGE after terminator"...), "schedule frame 2: logio: data after the terminator, at byte 29 past the header"},
		{"cut payload", valid[:len(valid)-6], "schedule frame 1: logio: truncated frame"},
	} {
		evs, err := Load(bytes.NewReader(tc.file))
		if err == nil {
			t.Errorf("%s: loaded %d events without error", tc.name, len(evs))
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want it to contain %q", tc.name, err, tc.want)
		}
	}
}

// TestBinaryLoadAllocBound: loading decodes every event exactly once, into a
// result allocated at its final size. Beyond the result itself the loader
// holds the frames as stored (compressed, well under a byte per event here)
// and the reader's fixed buffers; decoding into per-frame chunks and
// concatenating them read 2x here, and keeping the decoded payloads (four
// bytes per event here) 1.21x once an event was 24 bytes.
func TestBinaryLoadAllocBound(t *testing.T) {
	const n = 200000
	var buf bytes.Buffer
	if err := SaveBinary(&buf, synthSchedule(n)); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := Load(bytes.NewReader(buf.Bytes()))
	runtime.ReadMemStats(&after)
	if err != nil || len(got) != n {
		t.Fatalf("loaded %d events, err %v", len(got), err)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	exact := uint64(n) * uint64(unsafe.Sizeof(core.Event{}))
	if limit := exact * 120 / 100; allocated > limit {
		t.Fatalf("loading %d events in %d frames allocated %d bytes, %.2fx the schedule itself (limit 1.2x = %d)",
			n, (n+frameEvents-1)/frameEvents, allocated, float64(allocated)/float64(exact), limit)
	}
	t.Logf("allocated %.3fx the schedule", float64(allocated)/float64(exact))
}

// TestLoadLineLimit pins the satellite fix: the schedule text loader
// historically used an unguarded bufio.Scanner (64KB default) while the
// ingress loader allowed 1MB. Both now share logio.LineScanner: a line within
// logio.MaxLine loads, one beyond it fails with an actionable error.
func TestLoadLineLimit(t *testing.T) {
	longOK := scheduleHeaderV1 + "\n0 0 1 0 0   " + strings.Repeat(" ", 200*1024) + "\n"
	if _, err := Load(strings.NewReader(longOK)); err != nil {
		t.Fatalf("200KB line (within the shared limit) failed to load: %v", err)
	}
	tooLong := scheduleHeaderV1 + "\n0 0 1 0 0" + strings.Repeat(" ", logio.MaxLine+10) + "\n"
	_, err := Load(strings.NewReader(tooLong))
	if err == nil {
		t.Fatal("over-limit line loaded without error")
	}
	if !strings.Contains(err.Error(), "line limit") {
		t.Fatalf("over-limit error %q does not name the line limit", err)
	}
}

func FuzzLoad(f *testing.F) {
	var text, bin bytes.Buffer
	events := synthSchedule(200)
	if err := Save(&text, events); err != nil {
		f.Fatal(err)
	}
	if err := SaveBinary(&bin, events); err != nil {
		f.Fatal(err)
	}
	f.Add(text.Bytes())
	f.Add(bin.Bytes())
	f.Add(append(bytes.Clone(bin.Bytes()), "GARBAGE after terminator"...))
	f.Add([]byte(scheduleHeaderV3B + "\n"))
	f.Add([]byte(scheduleHeaderV3B + "\n\x05\x00abcde\x00\x00\x00\x00\x00"))
	f.Add([]byte("qithread-schedule v9\n"))
	var explored bytes.Buffer
	if err := SaveExplored(&explored, events[:20], []core.Choice{{Kind: 1, N: 3, Def: 0, Index: 2}}); err != nil {
		f.Fatal(err)
	}
	f.Add(explored.Bytes())
	f.Add([]byte(HeaderExplored + "\nc 1 2 0 1\n0 0 1 0 0\n"))
	for _, file := range hostileSchedules() {
		f.Add([]byte(file))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Load must never panic or hang; on success the result must be safe
		// to replay (ids and status in range) and the same schedule in every
		// codec: a file one
		// loader accepts is one every writer can write and every loader reads
		// back. On failure just an error.
		evs, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, e := range evs {
			if e.TID < 0 || e.Domain < 0 || e.Status > core.StatusReturn {
				t.Fatalf("loaded schedule has out-of-range event %+v", e)
			}
		}
		for name, save := range map[string]func(io.Writer, []core.Event) error{"text": Save, "binary": SaveBinary} {
			var buf bytes.Buffer
			if err := save(&buf, evs); err != nil {
				t.Fatalf("loaded schedule does not save as %s: %v", name, err)
			}
			if again, err := Load(&buf); err != nil || !slices.Equal(again, evs) {
				t.Fatalf("saved as %s, the schedule reloads as %v, %v; want %v", name, again, err, evs)
			}
		}
		// An explored schedule keeps its decision log, text to text.
		evs, choices, err := LoadExplored(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := SaveExplored(&buf, evs, choices); err != nil {
			t.Fatalf("loaded explored schedule does not save: %v", err)
		}
		if evs2, choices2, err := LoadExplored(&buf); err != nil || !slices.Equal(evs2, evs) || !slices.Equal(choices2, choices) {
			t.Fatalf("explored schedule reloads as %v, %v, %v; want %v, %v", evs2, choices2, err, evs, choices)
		}
	})
}

func BenchmarkScheduleLoad(b *testing.B) {
	events := synthSchedule(100_000)
	var text, bin bytes.Buffer
	if err := Save(&text, events); err != nil {
		b.Fatal(err)
	}
	if err := SaveBinary(&bin, events); err != nil {
		b.Fatal(err)
	}
	b.Logf("100k events: text %d bytes, binary %d bytes (%.1fx)",
		text.Len(), bin.Len(), float64(text.Len())/float64(bin.Len()))
	for _, c := range []struct {
		name string
		data []byte
	}{{"text", text.Bytes()}, {"binary", bin.Bytes()}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(events)))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				if _, err := Load(bytes.NewReader(c.data)); err != nil {
					b.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			// Bytes allocated per loaded event: the binary loader's result
			// slice (unsafe.Sizeof(core.Event{}) a piece) plus the copies of
			// its frames as stored.
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*len(events)), "B/event")
		})
	}
}

func TestBinaryWriterMisuse(t *testing.T) {
	var buf bytes.Buffer
	bw, err := NewBinaryWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Append(core.Event{}); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := bw.Close(); err == nil {
		t.Fatal("double close succeeded")
	}
	if got, err := Load(bytes.NewReader(buf.Bytes())); err != nil || len(got) != 0 {
		t.Fatalf("empty binary schedule: got %d events, err %v", len(got), err)
	}
}

func ExampleSaveBinary() {
	events := []core.Event{
		{TID: 0, Op: core.OpThreadBegin},
		{TID: 0, Op: core.OpMutexLock, Obj: 3},
		{TID: 1, Op: core.OpMutexLock, Obj: 3, Status: core.StatusBlocked},
	}
	var buf bytes.Buffer
	if err := SaveBinary(&buf, events); err != nil {
		panic(err)
	}
	loaded, _ := Load(&buf)
	fmt.Println(len(loaded), "events")
	// Output: 3 events
}
