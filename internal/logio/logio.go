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
// silently shorter log, matching the strictness of the text parsers.
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

// FrameWriter writes the framed binary container onto an io.Writer. Callers
// write their header line first (w is not buffered on their behalf until the
// first frame), then any number of frames, then Close to emit the terminator.
type FrameWriter struct {
	bw   *bufio.Writer
	comp *flate.Writer
	cbuf bytes.Buffer
	head [binary.MaxVarintLen64 + 1]byte
	err  error
}

// NewFrameWriter creates a frame writer on w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{bw: bufio.NewWriterSize(w, 1<<16)}
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
		if fw.comp == nil {
			fw.comp, _ = flate.NewWriter(&fw.cbuf, flate.BestSpeed)
		} else {
			fw.comp.Reset(&fw.cbuf)
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
// underlying writer. The FrameWriter must not be used afterwards.
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
	return nil
}

func (fw *FrameWriter) fail(err error) error {
	fw.err = err
	return err
}

// FrameReader reads the framed container back. Any structural deviation —
// truncation before the terminator, an oversized length, a CRC mismatch, a
// corrupt DEFLATE stream — is an error; no partial frame is ever returned.
//
// A warm reader allocates nothing per frame: the checksum and the
// decompressor's source and limit live in the record, since locals handed to
// an io.Reader escape.
type FrameReader struct {
	br     *bufio.Reader
	stored []byte
	crc    [4]byte
	plain  bytes.Buffer
	src    bytes.Reader
	lim    io.LimitedReader
	fl     io.ReadCloser
	done   bool
}

// NewFrameReader creates a frame reader on r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Next returns the next frame's decoded payload, or io.EOF after the
// terminator frame. The returned slice is only valid until the next call.
func (fr *FrameReader) Next() ([]byte, error) {
	if fr.done {
		return nil, io.EOF
	}
	n, err := binary.ReadUvarint(fr.br)
	if err != nil {
		return nil, fmt.Errorf("logio: truncated log: missing frame header (no terminator seen): %w", err)
	}
	if n == 0 {
		fr.done = true
		return nil, io.EOF
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("logio: frame length %d exceeds limit %d", n, MaxFrame)
	}
	enc, err := fr.br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("logio: truncated frame: missing encoding byte: %w", eofy(err))
	}
	if err := fr.readStored(int(n)); err != nil {
		return nil, fmt.Errorf("logio: truncated frame payload: %w", eofy(err))
	}
	if _, err := io.ReadFull(fr.br, fr.crc[:]); err != nil {
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
			fr.fl = flate.NewReader(&fr.src)
		} else {
			fr.fl.(flate.Resetter).Reset(&fr.src, nil)
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
		got, err := io.ReadFull(fr.br, fr.stored[len(fr.stored):min(cap(fr.stored), n)])
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
