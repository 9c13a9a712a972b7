package ingress

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"qithread/internal/logio"
)

// Ingress logs are plain text, one batch header plus one line per event:
//
//	qithread-ingress v1
//	batch <epoch> <count>
//	<source> <hex-payload>
//	...
//
// A batch records the snapshot one admission slot collected, BEFORE the
// shedding policy runs: the log is the complete nondeterministic input of a
// run, and everything downstream of it — including which events were shed —
// is recomputed deterministically on replay. Epochs whose snapshot was empty
// write nothing; batch headers carry the epoch number, so the Replayer keeps
// replayed admission slots aligned with the recorded ones. Event sequence
// numbers are not stored: they are the running count of logged events, in
// batch order, and are re-derived on replay.
//
// Payloads are lowercase hex so arbitrary bytes survive the text format; an
// empty payload writes "-" to keep the per-line field count fixed. Parsing
// is strict, like schedule files (internal/trace): a bad header, a wrong
// field count, a non-monotone epoch or a truncated batch is an error, not a
// silently shorter log.
//
// A binary version ("qithread-ingress v2b", see binary.go) serves
// million-event runs; LoadLog auto-detects both from the header line.
const logHeaderV1 = "qithread-ingress v1"

// The bounds of a recorded batch, the same in both codecs and on both sides
// of each — Log.Save, BinaryLogWriter.AppendBatch, loadLogText and
// loadLogBinary all go through checkBatch and checkSource, so neither writer
// emits a file either loader refuses: epochs start at 1 and strictly increase,
// a batch holds at least one event (empty snapshots are not recorded), and a
// source id is a registration index that fits in int32. The text codec adds
// one of its own: an event line — a source id of up to ten digits, a space,
// the payload in hex, the newline — must fit logio.MaxLine, or loadLogText
// could not read back what Log.Save wrote (the binary format holds it).
const (
	maxSource  = math.MaxInt32
	maxTextHex = logio.MaxLine - 12
)

// checkBatch checks a batch header — its epoch against the previous batch's
// (0 before the first) and its event count.
func checkBatch(prev, epoch int64, events int) error {
	if epoch <= prev {
		return fmt.Errorf("epoch %d out of order (previous %d)", epoch, prev)
	}
	if events < 1 {
		return fmt.Errorf("bad event count %d for epoch %d (want at least 1)", events, epoch)
	}
	return nil
}

func checkSource(src int64) error {
	if src < 0 || src > maxSource {
		return fmt.Errorf("bad source id %d (want 0..%d)", src, maxSource)
	}
	return nil
}

// Batch is one recorded admission snapshot: the events collected at one
// epoch boundary, in arrival order.
type Batch struct {
	Epoch  int64
	Events []Event // Source and Data only; stamps are re-derived on replay
}

// Log is a recorded sequence of admission snapshots — the complete external
// input of an ingress-driven run.
type Log struct {
	Batches []Batch
}

// append records one snapshot. Only the gateway calls it (under its mutex).
func (l *Log) append(epoch int64, snap []Event) {
	evs := make([]Event, len(snap))
	copy(evs, snap)
	l.Batches = append(l.Batches, Batch{Epoch: epoch, Events: evs})
}

// Events returns the total event count of the log.
func (l *Log) Events() int {
	n := 0
	for _, b := range l.Batches {
		n += len(b.Events)
	}
	return n
}

// Save writes the log in the versioned text format.
func (l *Log) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, logHeaderV1)
	prev := int64(0)
	for _, b := range l.Batches {
		if err := checkBatch(prev, b.Epoch, len(b.Events)); err != nil {
			return fmt.Errorf("ingress: %w", err)
		}
		prev = b.Epoch
		fmt.Fprintf(bw, "batch %d %d\n", b.Epoch, len(b.Events))
		for _, e := range b.Events {
			if err := checkSource(int64(e.Source)); err != nil {
				return fmt.Errorf("ingress: epoch %d: %w", b.Epoch, err)
			}
			data := "-"
			if len(e.Data) > 0 {
				data = hex.EncodeToString(e.Data)
			}
			if len(data) > maxTextHex {
				return fmt.Errorf("ingress: epoch %d: a %d-byte payload does not fit a %d-byte text line; save the log in the binary format", b.Epoch, len(e.Data), logio.MaxLine)
			}
			fmt.Fprintf(bw, "%d %s\n", e.Source, data)
		}
	}
	return bw.Flush() // write errors stick to bw and surface here
}

// LoadLog reads a log written by Save or SaveBinary, auto-detecting the text
// (v1) and binary (v2b) formats from the header line. Parsing is strict: any
// structural deviation is an error.
func LoadLog(r io.Reader) (*Log, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	header, err := logio.ReadHeader(br, "ingress: log")
	if err != nil {
		return nil, err
	}
	switch header {
	case logHeaderV1:
		return loadLogText(br)
	case logHeaderV2B:
		return loadLogBinary(br)
	default:
		return nil, fmt.Errorf("ingress: bad header %q (want %q or %q)", header, logHeaderV1, logHeaderV2B)
	}
}

// loadLogText parses the v1 text body.
func loadLogText(r io.Reader) (*Log, error) {
	sc := logio.LineScanner(r)
	l := &Log{}
	line := 1
	lastEpoch := int64(0)
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 || fields[0] != "batch" {
			return nil, fmt.Errorf("ingress: line %d: want \"batch <epoch> <count>\", got %q", line, text)
		}
		epoch, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("ingress: line %d: bad epoch: %v", line, err)
		}
		count, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("ingress: line %d: bad event count %q", line, fields[2])
		}
		if err := checkBatch(lastEpoch, epoch, count); err != nil {
			return nil, fmt.Errorf("ingress: line %d: %w", line, err)
		}
		lastEpoch = epoch
		// The count is a claim until the event lines have been read: it sizes
		// the slice only up to what a real batch holds.
		b := Batch{Epoch: epoch, Events: make([]Event, 0, min(count, 1024))}
		for i := 0; i < count; i++ {
			if !sc.Scan() {
				if err := logio.ScanErr(sc.Err(), "ingress: log", line); err != nil {
					return nil, err
				}
				return nil, fmt.Errorf("ingress: line %d: batch for epoch %d truncated (%d of %d events)", line, epoch, i, count)
			}
			line++
			ev := strings.Fields(strings.TrimSpace(sc.Text()))
			if len(ev) != 2 {
				return nil, fmt.Errorf("ingress: line %d: want \"<source> <hex-payload>\", got %q", line, sc.Text())
			}
			src, err := strconv.ParseInt(ev[0], 10, 64)
			if err == nil {
				err = checkSource(src)
			}
			if err != nil {
				return nil, fmt.Errorf("ingress: line %d: %w", line, err)
			}
			var data []byte
			if ev[1] != "-" {
				data, err = hex.DecodeString(ev[1])
				if err != nil {
					return nil, fmt.Errorf("ingress: line %d: bad payload hex: %v", line, err)
				}
			}
			b.Events = append(b.Events, Event{Source: int(src), Data: data})
		}
		l.Batches = append(l.Batches, b)
	}
	if err := logio.ScanErr(sc.Err(), "ingress: log", line); err != nil {
		return nil, err
	}
	return l, nil
}

// Replayer re-feeds a recorded ingress log: the source side of record/replay.
// A gateway configured with one receives, at each admission slot, exactly
// the snapshot recorded for that epoch (or nothing, when the recorded run's
// slot drained an empty stage against a queued backlog). Alignment is by
// epoch number, which advances once per Admit in both runs, so a program
// that consumes admitted events the same way it did while recording sees
// byte-identical batches — and therefore computes a byte-identical schedule.
type Replayer struct {
	log *Log
	pos int
}

// NewReplayer wraps a recorded log for replay. A single Replayer feeds a
// single gateway once; create a fresh one per replay run.
func NewReplayer(l *Log) *Replayer {
	return &Replayer{log: l}
}

// next returns the snapshot recorded for the given epoch, and whether the
// log is exhausted. A recorded epoch earlier than the current one means the
// replaying program diverged from the recorded consumption pattern — Admit
// was called fewer times than during recording — which can never reproduce
// the run, so it panics with a diagnostic rather than silently misaligning.
// queued is the replaying gateway's current backlog, used only for the
// diagnostic.
func (r *Replayer) next(epoch int64, queued int) (snap []Event, exhausted bool) {
	if r.pos >= len(r.log.Batches) {
		return nil, true
	}
	b := r.log.Batches[r.pos]
	if b.Epoch < epoch {
		panic(fmt.Sprintf("ingress: replay divergence: recorded batch for epoch %d but admission is at epoch %d (queued %d); the replaying program consumed events differently than the recorded run", b.Epoch, epoch, queued))
	}
	if b.Epoch > epoch {
		return nil, false
	}
	r.pos++
	return b.Events, r.pos >= len(r.log.Batches)
}

// SkipTo advances past every batch recorded at or before the given epoch, so
// a checkpoint-resumed replay — whose gateway restarts at the checkpoint's
// epoch counter — continues from exactly the batch the recorded run collected
// next. It returns the number of batches skipped.
func (r *Replayer) SkipTo(epoch int64) int {
	skipped := 0
	for r.pos < len(r.log.Batches) && r.log.Batches[r.pos].Epoch <= epoch {
		r.pos++
		skipped++
	}
	return skipped
}
