package logio_test

import (
	"bufio"
	"bytes"
	"io"
	"runtime"
	"testing"

	"qithread/internal/ckpt"
	"qithread/internal/core"
	"qithread/internal/ingress"
	"qithread/internal/logio"
	"qithread/internal/trace"
)

// TestWarmLoadsAllocateNoBuffer: every loader reads its header and body
// through a 64 KiB reader from the free list (logio.TakeReader) and hands it
// back when the load ends, so a warm load of a small schedule — binary or
// text —, ingress log or checkpoint allocates less than one such buffer, gob's
// decoder state included. (Each allocated a fresh one per load before; the
// text loader's scanner a second.)
func TestWarmLoadsAllocateNoBuffer(t *testing.T) {
	events := make([]core.Event, 50)
	for i := range events {
		events[i] = core.Event{Seq: int64(i), TID: i % 3, Op: core.OpYield}
	}
	var binSched, textSched, log, cp bytes.Buffer
	if err := trace.SaveBinary(&binSched, events); err != nil {
		t.Fatal(err)
	}
	if err := trace.Save(&textSched, events); err != nil {
		t.Fatal(err)
	}
	l := &ingress.Log{}
	l.AppendBatch(1, []ingress.Event{{Source: 1, Data: []byte("req")}})
	if err := l.SaveBinary(&log); err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Save(&cp, &ckpt.Record{Domains: []core.SchedState{{}}, Xseqs: []int64{0}}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		file []byte
		load func(io.Reader) error
	}{
		{"binary schedule", binSched.Bytes(), func(r io.Reader) error { _, err := trace.Load(r); return err }},
		{"text schedule", textSched.Bytes(), func(r io.Reader) error { _, err := trace.Load(r); return err }},
		{"ingress log", log.Bytes(), func(r io.Reader) error { _, err := ingress.LoadLog(r); return err }},
		{"checkpoint", cp.Bytes(), func(r io.Reader) error { _, err := ckpt.Load(r); return err }},
	} {
		load := func() {
			if err := c.load(bytes.NewReader(c.file)); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		load()
		const loads = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range loads {
			load()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / loads; per >= 64<<10 {
			t.Errorf("a warm %s load allocates %d bytes, want < 64 KiB: a 64 KiB buffer per load is back", c.name, per)
		}
	}
}

// TestTakeReaderKeepsCallersBuffer: a *bufio.Reader of 64 KiB or more that
// the caller passes is read directly and never recycled, while a smaller one
// is wrapped in a buffer from the free list.
func TestTakeReaderKeepsCallersBuffer(t *testing.T) {
	own := bufio.NewReaderSize(bytes.NewReader(nil), 1<<16)
	if br := logio.TakeReader(own); br != own {
		t.Fatal("TakeReader wrapped a 64 KiB caller's reader")
	} else {
		logio.PutReader(br, own)
	}
	small := bufio.NewReaderSize(bytes.NewReader(nil), 4096)
	br := logio.TakeReader(small)
	if br == small || br.Size() < 1<<16 {
		t.Fatalf("TakeReader on a 4 KiB reader returned a %d-byte one", br.Size())
	}
	logio.PutReader(br, small)
	for i := 0; i < 16; i++ {
		if got := logio.TakeReader(bytes.NewReader(nil)); got == own {
			t.Fatal("the caller's reader was put on the free list")
		}
	}
}
