package ingress

import (
	"fmt"
	"io"
	"math"

	"qithread/internal/logio"
)

// refused maps the headers of the ingress log formats LoadLog no longer reads
// to why, like ckpt's refused checkpoint layouts.
var refused = map[string]string{
	"qithread-ingress v1": "the hex-text format doubled every payload and is no longer written",
}

// The bounds of a recorded batch, on both sides of the codec:
// BinaryLogWriter.AppendBatch and loadLogBinary both go through checkBatch and
// checkSource, so the writer emits no file the loader refuses. Epochs start
// at 1 and strictly increase, a batch holds at least one event (empty
// snapshots are not recorded), and a source id is a registration index that
// fits in int32.
const maxSource = math.MaxInt32

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
// epoch boundary, in arrival order. It is the snapshot BEFORE the shedding
// policy ran: the log is the complete nondeterministic input of a run, and
// everything downstream of it — which events were shed included — is
// recomputed on replay. Epochs whose snapshot was empty record nothing; the
// epoch numbers keep replayed admission slots aligned with the recorded ones.
type Batch struct {
	Epoch  int64
	Events []Event // Source and Data only; stamps are re-derived on replay
}

// Log is a recorded sequence of admission snapshots — the complete external
// input of an ingress-driven run.
type Log struct {
	Batches []Batch
}

// AppendBatch records one snapshot, copying the slice (not the payloads):
// a Log is the BatchSink a live gateway retains its input in when
// Config.Sink is nil. It never fails; SaveBinary checks the bounds.
func (l *Log) AppendBatch(epoch int64, snap []Event) error {
	evs := make([]Event, len(snap))
	copy(evs, snap)
	l.Batches = append(l.Batches, Batch{Epoch: epoch, Events: evs})
	return nil
}

// Events returns the total event count of the log.
func (l *Log) Events() int {
	n := 0
	for _, b := range l.Batches {
		n += len(b.Events)
	}
	return n
}

// LoadLog reads a log SaveBinary or a BinaryLogWriter wrote. Parsing is
// strict: any structural deviation is an error, and a header of a format no
// longer read is refused by name.
func LoadLog(r io.Reader) (*Log, error) {
	br := logio.TakeReader(r)
	defer logio.PutReader(br, r)
	header, err := logio.ReadHeader(br, "ingress: log")
	if err != nil {
		return nil, err
	}
	if why, old := refused[header]; old {
		return nil, fmt.Errorf("ingress: %q logs are no longer readable (%s); this build reads %q — re-record the run", header, why, logHeaderV2B)
	}
	if header != logHeaderV2B {
		return nil, fmt.Errorf("ingress: bad header %q (want %q)", header, logHeaderV2B)
	}
	return loadLogBinary(br)
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
