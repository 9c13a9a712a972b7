package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"qithread/internal/core"
	"qithread/internal/logio"
)

// Schedule files come in two text versions, one operation per line:
//
//	qithread-schedule v1
//	<seq> <tid> <op-number> <obj> <status>
//
//	qithread-schedule v2
//	<seq> <tid> <op-number> <obj> <status> <domain>
//
// v2 adds the scheduler-domain id of each event, so partitioned executions
// (internal/domain) can persist per-domain schedules and merged listings.
// Save emits v1 whenever every event belongs to the default domain — keeping
// single-domain files, and the golden fingerprints derived from them,
// byte-identical to the original format — and v2 as soon as any event carries
// a non-zero domain. Load reads both.
//
// Parsing is strict: each line must carry exactly the field count of the
// file's declared version — a v2-style file read as v1 fails loudly instead
// of silently dropping the domain ids — and every field must lie in the range
// the binary format can store, so a loaded schedule is safe to replay.
//
// The format is stable across runs and diff-friendly, so recorded schedules
// can live next to bug reports and replay them later (the record/replay use
// case of DMT systems).
//
// A third, binary version ("qithread-schedule v3b", see binary.go) serves
// million-event runs; Load auto-detects all three from the header line.

const (
	scheduleHeaderV1 = "qithread-schedule v1"
	scheduleHeaderV2 = "qithread-schedule v2"
)

// Save writes a schedule in the text format, choosing the lowest version that
// can represent it: v1 when all events are in the default domain, v2
// otherwise.
func Save(w io.Writer, events []core.Event) error {
	version := 1
	for _, e := range events {
		if e.Domain != 0 {
			version = 2
			break
		}
	}
	return SaveVersion(w, events, version)
}

// SaveVersion writes a schedule in the requested format version (1 or 2).
// Version 1 cannot represent non-default domains and returns an error when
// asked to.
func SaveVersion(w io.Writer, events []core.Event, version int) error {
	bw := bufio.NewWriter(w)
	switch version {
	case 1:
		if _, err := fmt.Fprintln(bw, scheduleHeaderV1); err != nil {
			return err
		}
		for _, e := range events {
			if e.Domain != 0 {
				return fmt.Errorf("trace: event %d belongs to domain %d, which schedule format v1 cannot represent", e.Seq, e.Domain)
			}
			if _, err := fmt.Fprintf(bw, "%d %d %d %d %d\n", e.Seq, e.TID, uint8(e.Op), e.Obj, uint8(e.Status)); err != nil {
				return err
			}
		}
	case 2:
		if _, err := fmt.Fprintln(bw, scheduleHeaderV2); err != nil {
			return err
		}
		for _, e := range events {
			if _, err := fmt.Fprintf(bw, "%d %d %d %d %d %d\n", e.Seq, e.TID, uint8(e.Op), e.Obj, uint8(e.Status), e.Domain); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("trace: unsupported schedule format version %d", version)
	}
	return bw.Flush()
}

// Load reads a schedule written by Save or SaveBinary, auto-detecting the
// format from the header line: text v1/v2 and binary v3b all load through this
// one entry point, so every consumer (qireplay, qistat, qitrace) reads
// every format. v1 events load with the default domain 0.
func Load(r io.Reader) ([]core.Event, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	header, err := logio.ReadHeader(br, "trace: schedule")
	if err != nil {
		return nil, err
	}
	version := 0
	switch header {
	case scheduleHeaderV1:
		version = 1
	case scheduleHeaderV2:
		version = 2
	case scheduleHeaderV3:
		// Explored schedules (see explored.go): the events load normally and
		// the trailing decision log is discarded, so schedule-agnostic tools
		// read repro files unchanged. LoadExplored retains the decisions.
		version = 3
	case scheduleHeaderV3B:
		return loadBinary(br)
	default:
		return nil, fmt.Errorf("trace: bad header %q (want %q, %q, %q or %q)", header, scheduleHeaderV1, scheduleHeaderV2, scheduleHeaderV3, scheduleHeaderV3B)
	}
	events, _, err := loadTextBody(br, version)
	return events, err
}

// loadTextBody parses the body of a text schedule: one event per line, five
// fields under v1 and six (the domain id) under v2 and v3. v3 additionally
// accepts the decision log ("c <kind> <n> <def> <index>" lines) after the
// last event line — a trailer, not an interleaving. Fields are bounded as the
// binary format bounds them.
func loadTextBody(r io.Reader, version int) ([]core.Event, []core.Choice, error) {
	eventFields := len(eventLine)
	if version == 1 {
		eventFields-- // no domain id
	}
	sc := logio.LineScanner(r)
	var events []core.Event
	var choices []core.Choice
	line := 1 // the header was line 1
	fail := func(err error) ([]core.Event, []core.Choice, error) {
		return nil, nil, fmt.Errorf("trace: line %d: %w", line, err)
	}
	for sc.Scan() {
		line++
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		if version == 3 && f[0] == "c" {
			if len(f) != 5 {
				return fail(fmt.Errorf("%d fields, want 5 for a choice line", len(f)))
			}
			kind, err := field(f[1], "choice kind", math.MaxUint8)
			if err != nil {
				return fail(err)
			}
			var v [3]int
			for i := range v {
				if v[i], err = strconv.Atoi(f[2+i]); err != nil {
					return fail(err)
				}
			}
			choices = append(choices, core.Choice{Kind: core.ChoiceKind(kind), N: v[0], Def: v[1], Index: v[2]})
			continue
		}
		if len(choices) > 0 {
			return fail(errors.New("event line after choice lines"))
		}
		if len(f) != eventFields {
			return fail(fmt.Errorf("%d fields, want %d for this format version", len(f), eventFields))
		}
		var v [len(eventLine)]uint64
		for i, s := range f {
			var err error
			if v[i], err = field(s, eventLine[i].name, eventLine[i].max); err != nil {
				return fail(err)
			}
		}
		if uint64(len(events)) != v[0] {
			return fail(fmt.Errorf("sequence %d out of order", v[0]))
		}
		events = append(events, core.Event{
			Seq: int64(v[0]), TID: int(v[1]), Op: core.OpKind(v[2]), Obj: v[3], Status: core.EventStatus(v[4]), Domain: int(v[5]),
		})
	}
	return events, choices, logio.ScanErr(sc.Err(), "trace: schedule", line)
}

// eventLine names the fields of an event line, in order, with the largest
// value each may hold: what the binary format can store (ids are int32 there,
// the status is two bits wide) and what core.Event can represent.
var eventLine = [...]struct {
	name string
	max  uint64
}{
	{"sequence", math.MaxInt64},
	{"thread id", math.MaxInt32},
	{"op", math.MaxUint8},
	{"object", math.MaxUint64},
	{"status", uint64(core.StatusReturn)},
	{"domain id", math.MaxInt32},
}

// field parses one non-negative decimal field of a schedule line.
func field(s, name string, max uint64) (uint64, error) {
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil || v > max {
		return 0, fmt.Errorf("bad %s %q (want 0..%d)", name, s, max)
	}
	return v, nil
}
