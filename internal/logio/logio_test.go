package logio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

func writeFrames(t *testing.T, frames [][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	for _, f := range frames {
		if err := fw.WriteFrame(f); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func readFrames(b []byte) ([][]byte, error) {
	fr := NewFrameReader(bytes.NewReader(b))
	var out [][]byte
	for {
		p, err := fr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, append([]byte(nil), p...))
	}
}

// noise returns n incompressible bytes.
func noise(n int) []byte {
	b := make([]byte, n)
	x := uint32(1)
	for i := range b {
		x = x*1664525 + 1013904223
		b[i] = byte(x >> 24)
	}
	return b
}

func TestFrameRoundTrip(t *testing.T) {
	frames := [][]byte{
		[]byte("a"), // below CompressMin: stored raw
		bytes.Repeat([]byte("deterministic "), 200), // compressible, > CompressMin
		noise(300 << 10), // does not shrink: stored raw, read in growing chunks
		{0, 1, 2, 255},
	}
	got, err := readFrames(writeFrames(t, frames))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got) != len(frames) {
		t.Fatalf("%d frames, want %d", len(got), len(frames))
	}
	for i := range frames {
		if !bytes.Equal(got[i], frames[i]) {
			t.Errorf("frame %d mismatch", i)
		}
	}
}

func TestCompressionShrinks(t *testing.T) {
	frame := bytes.Repeat([]byte("deterministic "), 500)
	if comp := writeFrames(t, [][]byte{frame}); len(comp) >= len(frame) {
		t.Fatalf("container %d bytes for a %d-byte compressible payload", len(comp), len(frame))
	}
}

func TestTruncationDetected(t *testing.T) {
	full := writeFrames(t, [][]byte{bytes.Repeat([]byte("x"), 100)})
	// Every strict prefix must fail: either a truncated frame or a missing
	// terminator, never a silent short read.
	for cut := 0; cut < len(full); cut++ {
		if _, err := readFrames(full[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d bytes not detected", cut, len(full))
		}
	}
	if _, err := readFrames(full); err != nil {
		t.Fatalf("full log failed: %v", err)
	}
}

// TestTruncatedFrameAllocBounded feeds a 5-byte log whose one frame claims
// MaxFrame bytes: the reader must fail as truncated having allocated about
// what the file holds, not the claimed 64 MiB.
func TestTruncatedFrameAllocBounded(t *testing.T) {
	hostile := binary.AppendUvarint(nil, MaxFrame)
	hostile = append(hostile, 0x00) // encoding byte: raw
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrames(hostile)
	runtime.ReadMemStats(&after)
	const want = "logio: truncated frame payload: unexpected EOF"
	if err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a %d-byte log allocated %d bytes", len(hostile), got)
	}
}

// TestFrameIOAllocFree: a warm writer and reader allocate nothing per frame,
// raw or compressed.
func TestFrameIOAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"raw", []byte("one small frame")},
		{"flate", bytes.Repeat([]byte("deterministic "), 200)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var pipe bytes.Buffer
			fw := NewFrameWriter(&pipe)
			fr := NewFrameReader(&pipe)
			frame := func() {
				if err := fw.WriteFrame(tc.payload); err != nil {
					t.Fatal(err)
				}
				if err := fw.bw.Flush(); err != nil {
					t.Fatal(err)
				}
				got, err := fr.Next()
				if err != nil || !bytes.Equal(got, tc.payload) {
					t.Fatalf("Next = %d bytes, %v", len(got), err)
				}
			}
			frame() // warm: buffers, compressor and decompressor exist
			if allocs := testing.AllocsPerRun(100, frame); allocs != 0 {
				t.Fatalf("%.1f allocations per frame written and read", allocs)
			}
		})
	}
}

// TestTrailingBytesRefused: the terminator ends the input. A byte after it —
// a second log appended to the first — is an error naming where it starts,
// not a log that silently stops at the first terminator.
func TestTrailingBytesRefused(t *testing.T) {
	full := writeFrames(t, [][]byte{[]byte("abc")}) // a 9-byte frame, then the terminator
	if _, err := readFrames(append(full, full...)); err == nil || err.Error() != "logio: data after the terminator, at byte 10 past the header" {
		t.Fatalf("two logs in one input: %v", err)
	}
	fr := NewFrameReader(bytes.NewReader(full))
	for i := 0; i < 3; i++ {
		if _, err := fr.Next(); (i == 0) != (err == nil) || (i > 0 && err != io.EOF) {
			t.Fatalf("Next %d on a clean log: %v", i, err)
		}
	}
}

// emptyFreeLists drops whatever earlier tests left on the codec free lists,
// so a test knows which entry the next taker gets.
func emptyFreeLists() {
	for {
		_, a := freeBufWriters.take()
		_, b := freeCompressors.take()
		_, c := freeBufReaders.take()
		_, d := freeInflaters.take()
		if !a && !b && !c && !d {
			return
		}
	}
}

// TestWarmWriterReusesCodecState: a frame writer opened after another one
// closed takes its buffer and compressor, and a reader after another one
// reached its terminator takes its buffer and decompressor, so a
// write-and-close cycle allocates kilobytes (the records and the compressed
// output), not the 1.2 MB a fresh BestSpeed compressor costs.
func TestWarmWriterReusesCodecState(t *testing.T) {
	frame := bytes.Repeat([]byte("deterministic "), 200)
	var out bytes.Buffer
	cycle := func() {
		out.Reset()
		fw := NewFrameWriter(&out)
		for i := 0; i < 4; i++ {
			if err := fw.WriteFrame(frame); err != nil {
				t.Fatal(err)
			}
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		fr := NewFrameReader(bytes.NewReader(out.Bytes()))
		for {
			if _, err := fr.Next(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}
	emptyFreeLists()
	cycle()
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Fatalf("a warm write-and-read cycle of one log allocates %d bytes, want under 64 KiB", per)
	} else {
		t.Logf("a warm write-and-read cycle of one log allocates %d bytes", per)
	}
}

// TestUnpackStoredFrames: a frame kept as Stored returned it — compressed or
// raw — unpacks to the payload Next returned, past the terminator too, and
// the decompressor the unpacking took goes back to the free list at Close.
func TestUnpackStoredFrames(t *testing.T) {
	frames := [][]byte{bytes.Repeat([]byte("deterministic "), 200), []byte("raw"), noise(CompressMin)}
	emptyFreeLists()
	fr := NewFrameReader(bytes.NewReader(writeFrames(t, frames)))
	type kept struct {
		enc    byte
		stored []byte
	}
	var stored []kept
	for {
		p, err := fr.Next()
		if err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		enc, b := fr.Stored()
		if enc == encodingFlate && len(b) >= len(p) {
			t.Fatalf("frame %d: compressed to %d bytes from %d", len(stored), len(b), len(p))
		}
		stored = append(stored, kept{enc, append([]byte(nil), b...)})
	}
	if len(stored) != len(frames) || stored[0].enc != encodingFlate || stored[1].enc != encodingRaw {
		t.Fatalf("read %d frames, encodings %v", len(stored), stored)
	}
	for i, k := range stored {
		if p, err := fr.Unpack(k.enc, k.stored); err != nil || !bytes.Equal(p, frames[i]) {
			t.Fatalf("frame %d unpacks to %d bytes, err %v; Next read %d", i, len(p), err, len(frames[i]))
		}
	}
	inf := fr.inf
	fr.Close()
	if got, _ := freeInflaters.take(); inf == nil || got != inf {
		t.Fatal("Close did not return the decompressor Unpack took")
	}
}

// TestInflateBufferRecycled: the buffer a reader inflates into goes back to
// the free list with its decompressor, so the next reader of a compressed log
// inflates into the same storage instead of growing one from empty; a buffer
// grown past plainKeep is dropped, so no idle reader keeps a hostile frame's
// worth of memory.
func TestInflateBufferRecycled(t *testing.T) {
	for _, c := range []struct {
		size int
		kept bool
	}{{64 << 10, true}, {2 * plainKeep, false}} {
		log := writeFrames(t, [][]byte{bytes.Repeat([]byte("deterministic "), c.size/14)})
		emptyFreeLists()
		fr := NewFrameReader(bytes.NewReader(log))
		if _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
		inf := fr.inf
		if _, err := fr.Next(); err != io.EOF {
			t.Fatalf("%d-byte frame: Next after it: %v", c.size, err)
		}
		got, _ := freeInflaters.take()
		if got != inf {
			t.Fatalf("%d-byte frame: the terminator did not recycle the decompressor", c.size)
		}
		if kept := got.plain.Cap() >= c.size; kept != c.kept {
			t.Fatalf("%d-byte frame: buffer kept %v, want %v (cap %d)", c.size, kept, c.kept, got.plain.Cap())
		}
	}
}

// failWriter fails every write and counts the calls.
type failWriter struct{ calls int }

var errSink = errors.New("sink failed")

func (w *failWriter) Write([]byte) (int, error) {
	w.calls++
	return 0, errSink
}

// TestFrameWriterErrorSticks: once the writer under a FrameWriter fails, the
// WriteFrame or Close that met the failure returns its error, so does every
// later call, and nothing more reaches the writer.
func TestFrameWriterErrorSticks(t *testing.T) {
	for _, c := range []struct {
		name  string
		first func(fw *FrameWriter) error
	}{
		// A frame larger than the 64 KiB buffer is written through at once.
		{"WriteFrame", func(fw *FrameWriter) error { return fw.WriteFrame(noise(2 * bufSize)) }},
		// A small one waits in the buffer until Close flushes it.
		{"Close", func(fw *FrameWriter) error {
			if err := fw.WriteFrame([]byte("abc")); err != nil {
				return fmt.Errorf("buffered WriteFrame: %w", err)
			}
			return fw.Close()
		}},
	} {
		var w failWriter
		fw := NewFrameWriter(&w)
		if err := c.first(fw); err != errSink {
			t.Fatalf("%s: %v, want %v", c.name, err, errSink)
		}
		calls := w.calls
		for i := 0; i < 3; i++ {
			if err := fw.WriteFrame(noise(2 * bufSize)); err != errSink {
				t.Errorf("%s: later WriteFrame: %v, want %v", c.name, err, errSink)
			}
			if err := fw.Close(); err != errSink {
				t.Errorf("%s: later Close: %v, want %v", c.name, err, errSink)
			}
		}
		if w.calls != calls {
			t.Errorf("%s: %d writes after the failure, want none", c.name, w.calls-calls)
		}
	}
}

// TestClosedWriterOwnsNothing: a writer used after Close fails with its own
// error while another writer compresses with the compressor and buffer it
// gave back — under -race, any touch of them from the closed writer is a
// reported race — and the other writer's log reads back whole.
func TestClosedWriterOwnsNothing(t *testing.T) {
	frame := bytes.Repeat([]byte("deterministic "), 200)
	emptyFreeLists()
	var first, second bytes.Buffer
	closed := NewFrameWriter(&first)
	if err := closed.WriteFrame(frame); err != nil {
		t.Fatal(err)
	}
	comp := closed.comp
	if err := closed.Close(); err != nil {
		t.Fatal(err)
	}
	size := first.Len()
	other := NewFrameWriter(&second)
	done := make(chan error)
	go func() {
		for i := 0; i < 100; i++ {
			if err := other.WriteFrame(frame); err != nil {
				done <- err
				return
			}
		}
		done <- other.Close()
	}()
	for i := 0; i < 100; i++ {
		if err := closed.WriteFrame(frame); err == nil || err.Error() != "logio: writer closed" {
			t.Errorf("WriteFrame after Close: %v, want logio: writer closed", err)
		}
	}
	if err := closed.Close(); err == nil {
		t.Error("a second Close succeeded")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if first.Len() != size {
		t.Fatalf("the closed writer's log grew from %d to %d bytes", size, first.Len())
	}
	got, err := readFrames(second.Bytes())
	if err != nil || len(got) != 100 {
		t.Fatalf("the other writer's log reads back as %d frames, %v", len(got), err)
	}
	if c, _ := freeCompressors.take(); c != comp {
		t.Fatalf("the other writer did not compress with the recycled compressor")
	}
}

// TestCallerBuffersStayTheCallers: a writer or reader handed a buffered
// stream of at least 64 KiB works through it directly, and at Close or the
// terminator gives it back to nobody but the caller: it is not reset, not
// put on a free list, and what it buffered is still there.
func TestCallerBuffersStayTheCallers(t *testing.T) {
	emptyFreeLists()
	var out bytes.Buffer
	bw := bufio.NewWriterSize(&out, 1<<16)
	fw := NewFrameWriter(bw)
	if err := fw.WriteFrame([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := freeBufWriters.take(); ok {
		t.Fatal("Close put the caller's bufio.Writer on the free list")
	}
	bw.WriteString("tail")
	if err := bw.Flush(); err != nil || !bytes.HasSuffix(out.Bytes(), []byte("\x00tail")) {
		t.Fatalf("the caller's writer after Close: %v, %q", err, out.Bytes())
	}
	br := bufio.NewReaderSize(bytes.NewReader(out.Bytes()[:out.Len()-4]), 1<<16)
	fr := NewFrameReader(br)
	for {
		if _, err := fr.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := freeBufReaders.take(); ok {
		t.Fatal("the terminator put the caller's bufio.Reader on the free list")
	}
}

func TestBitFlipDetected(t *testing.T) {
	full := writeFrames(t, [][]byte{bytes.Repeat([]byte("y"), 64)})
	// Flip each bit of the stored payload region; the CRC must catch it.
	// (Flipping header bytes may instead produce structural errors, which is
	// fine too — the invariant is "never silently wrong".)
	for i := 0; i < len(full); i++ {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x10
		got, err := readFrames(mut)
		if err == nil && len(got) == 1 && bytes.Equal(got[0], bytes.Repeat([]byte("y"), 64)) {
			// A flip in trailing slack would be undetectable, but the format
			// has none: every byte is header, payload, CRC, or terminator.
			t.Fatalf("bit flip at byte %d produced the original payload with no error", i)
		}
	}
}

func TestOversizedLengthRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // huge uvarint
	if _, err := readFrames(buf.Bytes()); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized frame length not rejected: %v", err)
	}
}

func TestDecBounds(t *testing.T) {
	d := NewDec([]byte{0x05})
	if v := d.Uvarint(); v != 5 || d.Err() != nil {
		t.Fatalf("Uvarint = %d, err %v", v, d.Err())
	}
	if d.Bytes(3); d.Err() == nil {
		t.Fatal("Bytes past end did not error")
	}
	// Errors stick and subsequent reads are inert.
	if v := d.Uvarint(); v != 0 {
		t.Fatalf("read after error = %d", v)
	}
}

func TestLineScannerLimit(t *testing.T) {
	long := strings.Repeat("a", MaxLine+10)
	sc := LineScanner(strings.NewReader(long))
	for sc.Scan() {
	}
	err := ScanErr(sc.Err(), "test", 0)
	if err == nil || !strings.Contains(err.Error(), "line limit") {
		t.Fatalf("overlong line error = %v", err)
	}
	// A line under the limit but over the 64KB bufio default must scan.
	mid := strings.Repeat("b", 200*1024)
	sc = LineScanner(strings.NewReader(mid + "\n"))
	if !sc.Scan() || sc.Text() != mid {
		t.Fatalf("200KB line failed to scan: %v", sc.Err())
	}
}
