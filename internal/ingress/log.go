package ingress

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"io"
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
	if _, err := fmt.Fprintln(bw, logHeaderV1); err != nil {
		return err
	}
	for _, b := range l.Batches {
		if _, err := fmt.Fprintf(bw, "batch %d %d\n", b.Epoch, len(b.Events)); err != nil {
			return err
		}
		for _, e := range b.Events {
			data := "-"
			if len(e.Data) > 0 {
				data = hex.EncodeToString(e.Data)
			}
			if _, err := fmt.Fprintf(bw, "%d %s\n", e.Source, data); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
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
		if epoch <= lastEpoch {
			return nil, fmt.Errorf("ingress: line %d: epoch %d out of order (previous %d)", line, epoch, lastEpoch)
		}
		lastEpoch = epoch
		count, err := strconv.Atoi(fields[2])
		if err != nil || count < 1 {
			return nil, fmt.Errorf("ingress: line %d: bad event count %q", line, fields[2])
		}
		b := Batch{Epoch: epoch, Events: make([]Event, 0, count)}
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
			src, err := strconv.Atoi(ev[0])
			if err != nil || src < 0 {
				return nil, fmt.Errorf("ingress: line %d: bad source id %q", line, ev[0])
			}
			var data []byte
			if ev[1] != "-" {
				data, err = hex.DecodeString(ev[1])
				if err != nil {
					return nil, fmt.Errorf("ingress: line %d: bad payload hex: %v", line, err)
				}
			}
			b.Events = append(b.Events, Event{Source: src, Data: data})
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
