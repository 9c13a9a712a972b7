// Package logio is the shared plumbing of qithread's on-disk log formats:
// the varint-framed, CRC32C-checksummed binary container used by binary
// schedule files (internal/trace, "qithread-schedule v3b") and binary ingress
// logs (internal/ingress, "qithread-ingress v2b"), plus the guarded line
// scanner of the text schedule loader, the header reader every loader shares
// and the one FNV fold behind every fingerprint.
//
// # Container layout
//
// A binary log is a one-line text header (so format auto-detection reads a
// single line for text and binary files alike) followed by a sequence of
// frames and one terminator:
//
//	frame      := uvarint(storedLen>0) byte(encoding) stored[storedLen] crc32c_le(stored)
//	terminator := uvarint(0)
//
// storedLen covers the stored (possibly compressed) payload bytes; the CRC
// is CRC32C (Castagnoli) over exactly those bytes, little-endian, so a frame
// can be integrity-checked without decompressing it. encoding selects how
// the payload is stored: raw or DEFLATE (compress/flate, stdlib). The
// explicit zero-length terminator distinguishes a cleanly closed log from a
// truncated one — a plain EOF before the terminator is an error, never a
// silently shorter log, matching the strictness of the text parsers. The
// terminator also ends the file: a byte after it is an error too, so two
// logs concatenated into one file are refused rather than read as the first.
//
// Frames are self-contained: a reader needs no state from earlier frames to
// decode a later one.
package logio

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

const (
	// encodingRaw stores the payload verbatim.
	encodingRaw = 0
	// encodingFlate stores the payload DEFLATE-compressed.
	encodingFlate = 1

	// MaxFrame bounds a stored frame payload. It exists so a corrupt or
	// hostile length prefix cannot drive a multi-gigabyte allocation; real
	// frames (a few thousand events) are kilobytes.
	MaxFrame = 1 << 26

	// CompressMin is the stored-payload size below which WriteFrame skips
	// compression: tiny frames (a near-empty ingress batch) cost more in
	// DEFLATE block overhead than they save.
	CompressMin = 512
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// bufSize is the size of a frame writer's or reader's buffer.
const bufSize = 1 << 16

// The codec state a writer or reader needs for its lifetime — the 64 KiB
// buffer, the DEFLATE compressor (1.2 MB at BestSpeed) and decompressor
// (48 KB) — is recycled through bounded free lists, so a warm recording
// run allocates none of it per log file: a FrameWriter takes its buffer and
// compressor here and returns them at Close, a FrameReader its buffer and
// decompressor, returned at the terminator, and a loader the buffer it reads
// the header through (TakeReader), returned when the load ends. The records themselves are not
// recycled, so a writer used after Close fails on its own error and never
// reaches state another writer now holds. The lists are channels, not a
// sync.Pool: a GC cycle empties a pool, and a run's own allocation triggers
// one per log file. codecPoolCap is one recording run's writers (the
// benchmark's sharded server writes a schedule for each of its three domains
// and one ingress log), so an idle process retains at most codecPoolCap of
// each: about 5.5 MB in all.
const codecPoolCap = 4

// freeList is a bounded free list: take returns a recycled value when one is
// there, put drops the value when the list is full.
type freeList[T any] chan T

func (f freeList[T]) take() (v T, ok bool) {
	select {
	case v = <-f:
		return v, true
	default:
		return v, false
	}
}

func (f freeList[T]) put(v T) {
	select {
	case f <- v:
	default:
	}
}

var (
	freeBufWriters  = make(freeList[*bufio.Writer], codecPoolCap)
	freeCompressors = make(freeList[*flate.Writer], codecPoolCap)
	freeBufReaders  = make(freeList[*bufio.Reader], codecPoolCap)
	freeInflaters   = make(freeList[io.ReadCloser], codecPoolCap)
	// noInput is what an idle recycled reader or decompressor reads from, so
	// it keeps no log's input alive. Nothing reads it.
	noInput = new(bytes.Reader)
)

// FrameWriter writes the framed binary container onto an io.Writer. Callers
// write their header line first (w is not buffered on their behalf until the
// first frame), then any number of frames, then Close to emit the terminator.
type FrameWriter struct {
	bw    *bufio.Writer // nil once closed
	ownBW bool          // bw came from the free list, not from the caller
	comp  *flate.Writer // nil until the first compressed frame, and once closed
	cbuf  bytes.Buffer
	head  [binary.MaxVarintLen64 + 1]byte
	err   error
}

// NewFrameWriter creates a frame writer on w. A *bufio.Writer of at least
// 64 KiB is written directly and stays the caller's; any other w is buffered
// by a recycled writer.
func NewFrameWriter(w io.Writer) *FrameWriter {
	fw := &FrameWriter{}
	if bw, ok := w.(*bufio.Writer); ok && bw.Size() >= bufSize {
		fw.bw = bw
	} else if bw, ok := freeBufWriters.take(); ok {
		bw.Reset(w)
		fw.bw, fw.ownBW = bw, true
	} else {
		fw.bw, fw.ownBW = bufio.NewWriterSize(w, bufSize), true
	}
	return fw
}

// WriteFrame appends one frame holding payload. When compress is set and the
// payload is large enough to benefit, it is stored DEFLATE-compressed
// (falling back to raw storage if compression does not shrink it).
func (fw *FrameWriter) WriteFrame(payload []byte, compress bool) error {
	if fw.err != nil {
		return fw.err
	}
	if len(payload) == 0 {
		return fw.fail(errors.New("logio: empty frame payload"))
	}
	if len(payload) > MaxFrame {
		return fw.fail(fmt.Errorf("logio: frame payload %d bytes exceeds limit %d", len(payload), MaxFrame))
	}
	stored, enc := payload, byte(encodingRaw)
	if compress && len(payload) >= CompressMin {
		fw.cbuf.Reset()
		if fw.comp != nil {
			fw.comp.Reset(&fw.cbuf)
		} else if c, ok := freeCompressors.take(); ok {
			c.Reset(&fw.cbuf)
			fw.comp = c
		} else {
			fw.comp, _ = flate.NewWriter(&fw.cbuf, flate.BestSpeed)
		}
		if _, err := fw.comp.Write(payload); err != nil {
			return fw.fail(err)
		}
		if err := fw.comp.Close(); err != nil {
			return fw.fail(err)
		}
		if fw.cbuf.Len() < len(payload) {
			stored, enc = fw.cbuf.Bytes(), encodingFlate
		}
	}
	n := binary.PutUvarint(fw.head[:], uint64(len(stored)))
	fw.head[n] = enc
	if _, err := fw.bw.Write(fw.head[:n+1]); err != nil {
		return fw.fail(err)
	}
	if _, err := fw.bw.Write(stored); err != nil {
		return fw.fail(err)
	}
	// The checksum reuses head: a local array handed to the io.Writer would
	// escape, one allocation per frame.
	binary.LittleEndian.PutUint32(fw.head[:4], crc32.Checksum(stored, crcTable))
	if _, err := fw.bw.Write(fw.head[:4]); err != nil {
		return fw.fail(err)
	}
	return nil
}

// Close writes the terminator frame and flushes. It does not close the
// underlying writer. It returns the buffer and compressor to the free lists:
// afterwards every call fails with "logio: writer closed", a second Close
// included.
func (fw *FrameWriter) Close() error {
	if fw.err != nil {
		return fw.err
	}
	if err := fw.bw.WriteByte(0); err != nil { // uvarint(0) terminator
		return fw.fail(err)
	}
	if err := fw.bw.Flush(); err != nil {
		return fw.fail(err)
	}
	fw.err = errors.New("logio: writer closed")
	// Reset so that, idle on a free list, neither keeps this log's writer or
	// this record's buffer alive.
	if fw.ownBW {
		fw.bw.Reset(io.Discard)
		freeBufWriters.put(fw.bw)
	}
	fw.bw = nil
	if fw.comp != nil {
		fw.comp.Reset(io.Discard)
		freeCompressors.put(fw.comp)
		fw.comp = nil
	}
	return nil
}

func (fw *FrameWriter) fail(err error) error {
	fw.err = err
	return err
}

// FrameReader reads the framed container back. Any structural deviation —
// truncation before the terminator, an oversized length, a CRC mismatch, a
// corrupt DEFLATE stream, a byte after the terminator — is an error; no
// partial frame is ever returned.
//
// A warm reader allocates nothing per frame: the checksum and the
// decompressor's source and limit live in the record, since locals handed to
// an io.Reader escape.
type FrameReader struct {
	in     countingReader
	ownBR  bool // in.br came from the free list, not from the caller
	stored []byte
	crc    [4]byte
	plain  bytes.Buffer
	src    bytes.Reader
	lim    io.LimitedReader
	fl     io.ReadCloser // nil until the first compressed frame, and after the terminator
	done   bool
}

// countingReader is the reader's input with its position: the bytes consumed
// since the frames began, so an error can name an offset.
type countingReader struct {
	br  *bufio.Reader
	off int64
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		c.off++
	}
	return b, err
}

func (c *countingReader) readFull(p []byte) (int, error) {
	n, err := io.ReadFull(c.br, p)
	c.off += int64(n)
	return n, err
}

// NewFrameReader creates a frame reader on r. A *bufio.Reader of at least
// 64 KiB (the loaders read their header line through one) is read directly
// and stays the caller's; any other r is buffered by a recycled reader.
func NewFrameReader(r io.Reader) *FrameReader {
	fr := &FrameReader{}
	fr.in.br = TakeReader(r)
	fr.ownBR = fr.in.br != r
	return fr
}

// TakeReader returns a 64 KiB buffered reader on r: r itself when it is a
// *bufio.Reader that size or larger, which stays the caller's, otherwise one
// from the free list. A loader reads its header and body through it and hands
// it back with PutReader once the load is done, so a warm load allocates no
// buffer.
func TakeReader(r io.Reader) *bufio.Reader {
	if br, ok := r.(*bufio.Reader); ok && br.Size() >= bufSize {
		return br
	}
	if br, ok := freeBufReaders.take(); ok {
		br.Reset(r)
		return br
	}
	return bufio.NewReaderSize(r, bufSize)
}

// PutReader recycles br, which TakeReader(r) returned, unless it is r itself:
// a buffer that belongs to the caller is never recycled. br may not be used
// afterwards.
func PutReader(br *bufio.Reader, r io.Reader) {
	if br != r {
		br.Reset(noInput)
		freeBufReaders.put(br)
	}
}

// Next returns the next frame's decoded payload, or io.EOF after the
// terminator frame. The returned slice is only valid until the next call.
func (fr *FrameReader) Next() ([]byte, error) {
	if fr.done {
		return nil, io.EOF
	}
	n, err := binary.ReadUvarint(&fr.in)
	if err != nil {
		return nil, fmt.Errorf("logio: truncated log: missing frame header (no terminator seen): %w", err)
	}
	if n == 0 {
		return nil, fr.end()
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("logio: frame length %d exceeds limit %d", n, MaxFrame)
	}
	enc, err := fr.in.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("logio: truncated frame: missing encoding byte: %w", eofy(err))
	}
	if err := fr.readStored(int(n)); err != nil {
		return nil, fmt.Errorf("logio: truncated frame payload: %w", eofy(err))
	}
	if _, err := fr.in.readFull(fr.crc[:]); err != nil {
		return nil, fmt.Errorf("logio: truncated frame checksum: %w", eofy(err))
	}
	if want, got := binary.LittleEndian.Uint32(fr.crc[:]), crc32.Checksum(fr.stored, crcTable); want != got {
		return nil, fmt.Errorf("logio: frame checksum mismatch: stored %08x, computed %08x", want, got)
	}
	switch enc {
	case encodingRaw:
		return fr.stored, nil
	case encodingFlate:
		fr.plain.Reset()
		fr.src.Reset(fr.stored)
		if fr.fl == nil {
			fr.fl, _ = freeInflaters.take()
		}
		if fr.fl != nil {
			fr.fl.(flate.Resetter).Reset(&fr.src, nil)
		} else {
			fr.fl = flate.NewReader(&fr.src)
		}
		fr.lim = io.LimitedReader{R: fr.fl, N: MaxFrame + 1}
		if _, err := fr.plain.ReadFrom(&fr.lim); err != nil {
			return nil, fmt.Errorf("logio: corrupt compressed frame: %w", err)
		}
		if fr.plain.Len() > MaxFrame {
			return nil, fmt.Errorf("logio: decompressed frame exceeds limit %d", MaxFrame)
		}
		return fr.plain.Bytes(), nil
	default:
		return nil, fmt.Errorf("logio: unknown frame encoding %d", enc)
	}
}

// end handles the terminator: the input must end there. On a clean end the
// buffer (when the reader owns it) and the decompressor go back to the free
// lists, and every later Next returns io.EOF.
func (fr *FrameReader) end() error {
	switch _, err := fr.in.ReadByte(); err {
	case io.EOF:
	case nil:
		return fmt.Errorf("logio: data after the terminator, at byte %d past the header", fr.in.off-1)
	default:
		return fmt.Errorf("logio: reading past the terminator: %w", err)
	}
	fr.done = true
	if fr.ownBR {
		PutReader(fr.in.br, nil)
	}
	fr.in.br = nil
	if fr.fl != nil {
		fr.fl.(flate.Resetter).Reset(noInput, nil)
		freeInflaters.put(fr.fl)
		fr.fl = nil
	}
	return io.EOF
}

// readStored reads an n-byte stored payload into fr.stored. A buffer that
// already holds n bytes is reused as is. Otherwise it grows as bytes arrive,
// in chunks that double from 64 KiB: a length prefix is only a claim, and
// a truncated or hostile file must cost about what it holds, not the
// MaxFrame it names.
func (fr *FrameReader) readStored(n int) error {
	fr.stored = fr.stored[:0]
	for len(fr.stored) < n {
		if len(fr.stored) == cap(fr.stored) {
			fr.stored = slices.Grow(fr.stored, min(max(cap(fr.stored), 64<<10), n-len(fr.stored)))
		}
		got, err := fr.in.readFull(fr.stored[len(fr.stored):min(cap(fr.stored), n)])
		fr.stored = fr.stored[:len(fr.stored)+got]
		if err != nil {
			return err
		}
	}
	return nil
}

// eofy maps a bare io.EOF to io.ErrUnexpectedEOF: inside a frame, EOF is
// always truncation.
func eofy(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Dec is a bounds-checked decoder over one frame payload. All reads fail
// softly (Err sticks) so loaders can decode a record and check the error
// once, and corrupt input can never index out of range or panic.
type Dec struct {
	b   []byte
	err error
}

// NewDec wraps a payload for decoding.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the first decoding error, if any.
func (d *Dec) Err() error { return d.err }

// Len returns the number of undecoded bytes remaining.
func (d *Dec) Len() int { return len(d.b) }

// Uvarint decodes one unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = errors.New("logio: corrupt record: bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Byte decodes one byte.
func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.err = errors.New("logio: corrupt record: unexpected end of frame")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Bytes decodes n raw bytes (a view into the frame, valid until the next
// FrameReader.Next call).
func (d *Dec) Bytes(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.err = fmt.Errorf("logio: corrupt record: %d payload bytes wanted, %d remain in frame", n, len(d.b))
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}
