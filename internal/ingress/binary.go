package ingress

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"qithread/internal/logio"
)

// The ingress log format, "qithread-ingress v2b": the shared framed container
// of internal/logio, one frame per recorded batch:
//
//	qithread-ingress v2b\n
//	frame*            (logio framing: uvarint len, encoding, payload, CRC32C)
//	terminator
//
// Frame payload:
//
//	uvarint(epochDelta)   delta to the previous batch's epoch, >= 1
//	uvarint(count)        events in the batch, >= 1
//	count × { uvarint(source), uvarint(len), len raw payload bytes }
//
// Epochs are strictly increasing (one per admission slot that collected
// anything), so the delta is always positive — a zero delta is corruption.
// Only the collected input is stored: stamps, shedding and admission order
// are recomputed deterministically on replay.
const logHeaderV2B = "qithread-ingress v2b"

// BatchSink receives recorded ingress batches as they are collected. A *Log
// retains them in memory, the default; a BinaryLogWriter streams them out in
// bounded memory (Config.Sink). AppendBatch is called once per non-empty
// admission snapshot, under the gateway mutex, inside the turn-holding
// admission slot, and must not retain snap. An error is fatal to the run (the
// gateway panics): losing input batches silently would break the
// record/replay contract.
type BatchSink interface {
	AppendBatch(epoch int64, snap []Event) error
}

// BinaryLogWriter writes a v2b binary ingress log incrementally. It
// implements BatchSink, so a streaming gateway persists its input log with
// one frame per batch and O(batch) memory.
type BinaryLogWriter struct {
	fw        *logio.FrameWriter
	buf       []byte
	lastEpoch int64
}

// NewBinaryLogWriter writes the v2b header and returns a writer appending to
// w. The caller must Close it to terminate the log.
func NewBinaryLogWriter(w io.Writer) (*BinaryLogWriter, error) {
	if _, err := io.WriteString(w, logHeaderV2B+"\n"); err != nil {
		return nil, err
	}
	return &BinaryLogWriter{fw: logio.NewFrameWriter(w)}, nil
}

// AppendBatch writes one recorded batch. Epochs must be strictly increasing
// and a batch must hold an event, as the gateway's snapshots do. After
// Close it fails, as a second Close does: the frame writer is closed.
func (bw *BinaryLogWriter) AppendBatch(epoch int64, snap []Event) error {
	if err := checkBatch(bw.lastEpoch, epoch, len(snap)); err != nil {
		return fmt.Errorf("ingress: %w", err)
	}
	b := binary.AppendUvarint(bw.buf[:0], uint64(epoch-bw.lastEpoch))
	b = binary.AppendUvarint(b, uint64(len(snap)))
	for _, e := range snap {
		if err := checkSource(int64(e.Source)); err != nil {
			return fmt.Errorf("ingress: epoch %d: %w", epoch, err)
		}
		b = binary.AppendUvarint(b, uint64(e.Source))
		b = binary.AppendUvarint(b, uint64(len(e.Data)))
		b = append(b, e.Data...)
	}
	bw.buf = b
	bw.lastEpoch = epoch
	return bw.fw.WriteFrame(b, true)
}

// Close writes the terminator and flushes. It does not close the underlying
// writer.
func (bw *BinaryLogWriter) Close() error { return bw.fw.Close() }

// SaveBinary writes the log in the v2b binary format.
func (l *Log) SaveBinary(w io.Writer) error {
	bw, err := NewBinaryLogWriter(w)
	if err != nil {
		return err
	}
	for _, b := range l.Batches {
		if err := bw.AppendBatch(b.Epoch, b.Events); err != nil {
			return err
		}
	}
	return bw.Close()
}

// loadLogBinary reads the frames of a v2b log; LoadLog has consumed the
// header line.
func loadLogBinary(br *bufio.Reader) (*Log, error) {
	fr := logio.NewFrameReader(br)
	l := &Log{}
	epoch := int64(0)
	for {
		payload, err := fr.Next()
		if err == io.EOF {
			return l, nil
		}
		frame := len(l.Batches)
		if err != nil {
			return nil, fmt.Errorf("ingress: batch frame %d: %w", frame, err)
		}
		// The reader reuses its buffer and events outlive it, so the frame is
		// copied once and every event's Data is a view into that copy —
		// capacity-limited, so a consumer's append cannot reach a neighbour.
		payload = append([]byte(nil), payload...)
		d := logio.NewDec(payload)
		// A delta that overflows int64 wraps to an epoch at or below the
		// previous one, which checkBatch refuses like a zero delta.
		next := epoch + int64(d.Uvarint())
		count := d.Uvarint()
		// Every event takes at least the source and length varints, so a
		// count beyond half the payload is corruption.
		if count > uint64(len(payload))/2 {
			return nil, fmt.Errorf("ingress: batch frame %d: implausible event count %d for a %d-byte frame", frame, count, len(payload))
		}
		if err := checkBatch(epoch, next, int(count)); err != nil {
			return nil, fmt.Errorf("ingress: batch frame %d: %w", frame, err)
		}
		epoch = next
		b := Batch{Epoch: epoch, Events: make([]Event, 0, count)}
		for i := uint64(0); i < count; i++ {
			src := d.Uvarint()
			if err := checkSource(int64(src)); err != nil { // past int64 wraps negative: refused either way
				return nil, fmt.Errorf("ingress: batch frame %d: %w", frame, err)
			}
			n := d.Uvarint()
			raw := d.Bytes(n)
			if d.Err() != nil {
				return nil, fmt.Errorf("ingress: batch frame %d: %w", frame, d.Err())
			}
			var data []byte
			if n > 0 {
				data = raw[:n:n]
			}
			b.Events = append(b.Events, Event{Source: int(src), Data: data})
		}
		if d.Len() != 0 {
			return nil, fmt.Errorf("ingress: batch frame %d: %d trailing bytes after %d events", frame, d.Len(), count)
		}
		l.Batches = append(l.Batches, b)
	}
}
