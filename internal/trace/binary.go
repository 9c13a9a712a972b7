package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"qithread/internal/core"
	"qithread/internal/logio"
)

// Binary schedule format, "qithread-schedule v3b". Text schedules (v1/v2)
// cost ~20 bytes and most of a microsecond of parsing per event — fine for the thousand-event
// traces of the determinism suite, hostile to the million-event runs of the
// streaming experiments. v3b stores the same events in the shared framed
// container of internal/logio:
//
//	qithread-schedule v3b\n
//	frame*            (logio framing: uvarint len, encoding, payload, CRC32C)
//	terminator
//
// Each frame payload holds up to frameEvents events:
//
//	uvarint(count)
//	count × { op byte, flags byte, [uvarint tid], [uvarint obj], [uvarint domain] }
//
// flags bits 0–1 carry the event status; bits 2/3/4 mean "tid/obj/domain equal
// to the previous event's", in which case the corresponding varint is omitted.
// The previous-event registers reset to (0, 0, 0) at each frame start, keeping
// frames self-contained. An event's sequence number is its position, so it
// is not stored.
//
// Schedule traces are extremely repetitive (a handful of threads ping-ponging
// over a handful of objects), so frames additionally DEFLATE-compress under
// the container's encoding byte. Together the delta flags and compression put
// v3b well past the 5× size/speed targets over the text format.

// frameEvents is the number of events per binary frame. Large enough to
// amortize framing and give DEFLATE context, small enough that a streaming
// writer holds only kilobytes between flushes.
const frameEvents = 4096

const (
	flagStatusMask = 0x03
	flagSameTID    = 0x04
	flagSameObj    = 0x08
	flagSameDomain = 0x10
	flagsKnown     = flagStatusMask | flagSameTID | flagSameObj | flagSameDomain
)

// frameEnc accumulates events into one frame payload.
type frameEnc struct {
	body    []byte
	scratch []byte
	count   int
	prevTID int32
	prevObj uint64
	prevDom int32
}

func (fe *frameEnc) add(e core.Event) {
	// The registers reset to (0,0,0) at each frame start on both sides, so
	// the same-as-prev flags apply uniformly, first event included.
	flags := byte(e.Status) & flagStatusMask
	if e.TID == fe.prevTID {
		flags |= flagSameTID
	}
	if e.Obj == fe.prevObj {
		flags |= flagSameObj
	}
	if e.Domain == fe.prevDom {
		flags |= flagSameDomain
	}
	fe.body = append(fe.body, byte(e.Op), flags)
	if flags&flagSameTID == 0 {
		fe.body = binary.AppendUvarint(fe.body, uint64(e.TID))
	}
	if flags&flagSameObj == 0 {
		fe.body = binary.AppendUvarint(fe.body, e.Obj)
	}
	if flags&flagSameDomain == 0 {
		fe.body = binary.AppendUvarint(fe.body, uint64(e.Domain))
	}
	fe.prevTID, fe.prevObj, fe.prevDom = e.TID, e.Obj, e.Domain
	fe.count++
}

// flush writes the accumulated frame (if any) and resets the encoder.
func (fe *frameEnc) flush(fw *logio.FrameWriter) error {
	if fe.count == 0 {
		return nil
	}
	fe.scratch = binary.AppendUvarint(fe.scratch[:0], uint64(fe.count))
	fe.scratch = append(fe.scratch, fe.body...)
	err := fw.WriteFrame(fe.scratch)
	fe.body = fe.body[:0]
	fe.count = 0
	fe.prevTID, fe.prevObj, fe.prevDom = 0, 0, 0
	return err
}

// BinaryWriter writes a v3b binary schedule incrementally. It implements
// core.TraceSink, which is how a streaming (bounded-memory) recording run
// persists its schedule: the scheduler appends each event as it happens and
// the writer retains at most one frame of them.
type BinaryWriter struct {
	fw     *logio.FrameWriter
	enc    frameEnc
	n      int // events appended
	closed bool
}

// NewBinaryWriter writes the v3b header and returns a writer appending to w.
// The caller must Close it to terminate the log.
func NewBinaryWriter(w io.Writer) (*BinaryWriter, error) {
	if _, err := io.WriteString(w, scheduleHeaderV3B+"\n"); err != nil {
		return nil, err
	}
	return &BinaryWriter{fw: logio.NewFrameWriter(w)}, nil
}

// Append adds one event to the log. Events must arrive in trace order: an
// event's position is its sequence number.
func (bw *BinaryWriter) Append(e core.Event) error {
	if bw.closed {
		return fmt.Errorf("trace: append to closed binary schedule writer")
	}
	if err := checkEvent(bw.n, e); err != nil {
		return err
	}
	bw.n++
	bw.enc.add(e)
	if bw.enc.count >= frameEvents {
		return bw.enc.flush(bw.fw)
	}
	return nil
}

// Close frames any buffered events, writes the terminator and flushes. It
// does not close the underlying writer. A second Close fails in the frame
// writer, which is closed by then.
func (bw *BinaryWriter) Close() error {
	bw.closed = true
	if err := bw.enc.flush(bw.fw); err != nil {
		return err
	}
	return bw.fw.Close()
}

// SaveBinary writes a schedule in the v3b binary format.
func SaveBinary(w io.Writer, events []core.Event) error {
	bw, err := NewBinaryWriter(w)
	if err != nil {
		return err
	}
	for _, e := range events {
		if err := bw.Append(e); err != nil {
			return err
		}
	}
	return bw.Close()
}

// loadBinary reads the frames of a v3b schedule; the header line has already
// been consumed by Load's auto-detection.
//
// The load is two passes so that every event is written exactly once. The
// first reads, CRC-checks and unpacks every frame, keeping it as stored
// (compressed, a fraction of a byte per event; a raw frame is its payload)
// with its validated event count; the second allocates the result at the
// exact total and unpacks and decodes each frame straight into it. Decoding
// frame by frame into a growing slice, or into per-frame chunks concatenated
// at the end, copies the whole 24-byte-per-event schedule at least once more;
// keeping the unpacked payloads instead costs a few bytes per event more.
func loadBinary(br *bufio.Reader) ([]core.Event, error) {
	type rawFrame struct {
		stored []byte
		enc    byte
		count  uint64
	}
	fr := logio.NewFrameReader(br)
	defer fr.Close()
	var frames []rawFrame
	total := uint64(0)
	for {
		payload, err := fr.Next()
		if err == io.EOF {
			break
		}
		frame := len(frames)
		if err != nil {
			return nil, fmt.Errorf("trace: schedule frame %d: %w", frame, err)
		}
		d := logio.NewDec(payload)
		count := d.Uvarint()
		// Every event takes at least the op and flags bytes, so a count
		// beyond half the payload is corruption, not a big frame.
		if count == 0 || count > uint64(len(payload))/2 {
			return nil, fmt.Errorf("trace: schedule frame %d: implausible event count %d for a %d-byte frame", frame, count, len(payload))
		}
		// The reader reuses its buffer, so the stored frame is copied out.
		enc, stored := fr.Stored()
		frames = append(frames, rawFrame{stored: append([]byte(nil), stored...), enc: enc, count: count})
		total += count
	}
	out := make([]core.Event, total)
	pos := 0
	for frame, f := range frames {
		payload, err := fr.Unpack(f.enc, f.stored)
		if err != nil {
			return nil, fmt.Errorf("trace: schedule frame %d: %w", frame, err)
		}
		d := logio.NewDec(payload)
		d.Uvarint() // the count, checked above
		var prevTID, prevDom int32
		var prevObj uint64
		for i := uint64(0); i < f.count; i++ {
			op := d.Byte()
			flags := d.Byte()
			if flags&^byte(flagsKnown) != 0 {
				return nil, fmt.Errorf("trace: schedule frame %d: unknown flag bits %#02x", frame, flags)
			}
			status := flags & flagStatusMask
			if status > uint8(maxStatus) {
				return nil, fmt.Errorf("trace: schedule frame %d: bad event status %d", frame, status)
			}
			tid, obj, dom := prevTID, prevObj, prevDom
			if flags&flagSameTID == 0 {
				v := d.Uvarint()
				if v > maxID {
					return nil, fmt.Errorf("trace: schedule frame %d: thread id %d out of range", frame, v)
				}
				tid = int32(v)
			}
			if flags&flagSameObj == 0 {
				obj = d.Uvarint()
			}
			if flags&flagSameDomain == 0 {
				v := d.Uvarint()
				if v > maxID {
					return nil, fmt.Errorf("trace: schedule frame %d: domain id %d out of range", frame, v)
				}
				dom = int32(v)
			}
			if d.Err() != nil {
				return nil, fmt.Errorf("trace: schedule frame %d: %w", frame, d.Err())
			}
			out[pos] = core.Event{
				TID:    tid,
				Op:     core.OpKind(op),
				Obj:    obj,
				Status: core.EventStatus(status),
				Domain: dom,
			}
			pos++
			prevTID, prevObj, prevDom = tid, obj, dom
		}
		if d.Len() != 0 {
			return nil, fmt.Errorf("trace: schedule frame %d: %d trailing bytes after %d events", frame, d.Len(), f.count)
		}
	}
	return out, nil
}
