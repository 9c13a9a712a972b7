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
	"qithread/internal/policy"
)

// A schedule file is one header line and then the events, in one of three
// text versions (one line per event) or one binary version (binary.go):
//
//	qithread-schedule v1      <seq> <tid> <op-number> <obj> <status>
//	qithread-schedule v2      <seq> <tid> <op-number> <obj> <status> <domain>
//	qithread-schedule v3      v2 lines, then "c <kind> <n> <def> <index>" lines
//	qithread-schedule v3b     framed binary
//
// v2 adds the scheduler-domain id of each event, so partitioned executions
// (pipe.go) can persist per-domain schedules. Save emits v1 whenever
// every event belongs to the default domain — keeping single-domain files, and
// the golden fingerprints derived from them, byte-identical to the original
// format — and v2 as soon as any event carries a non-zero domain.
//
// v3 is an EXPLORED schedule: after the event lines comes the decision log of
// a schedule-space exploration run, one line per resolved choice point in
// resolution order, where <kind> numbers policy.ChoiceKind (0 turn, 1 wake,
// 2 admit), <n> is the candidate count, <def> the index the configured policy
// would have taken and <index> the index actually taken. The pair (events,
// choices) is a complete repro: the events drive turn order through schedule
// replay (Config.Replay) while the choices drive the decisions replay cannot
// express — which waiter each signal woke, where admission batch boundaries
// fell. Only SaveExplored emits v3; Load reads it by discarding the choice
// lines, so schedule-agnostic tools work on repro files unchanged.
//
// Parsing is strict: each line must carry exactly the field count of the
// file's declared version — a v2-style file read as v1 fails loudly instead
// of silently dropping the domain ids — and the text format is stable across
// runs and diff-friendly, so recorded schedules can live next to bug reports
// and replay them later (the record/replay use case of DMT systems).
const (
	scheduleHeaderV1  = "qithread-schedule v1"
	scheduleHeaderV2  = "qithread-schedule v2"
	scheduleHeaderV3B = "qithread-schedule v3b"

	// HeaderExplored is the first line of an explored schedule (v3), exported
	// for tools that tell a repro file from a plain schedule before loading it.
	HeaderExplored = "qithread-schedule v3"
)

// The bounds of an event's fields, the same in every codec and on both sides
// of it — saveText, BinaryWriter.Append, loadText and loadBinary all enforce
// them, so no writer emits a file a loader refuses and a loaded schedule is
// safe to replay: ids are int32 in the binary format and in core.Event and
// index the scheduler's tables, the status is two bits wide.
const (
	maxID     = math.MaxInt32 // thread and domain ids
	maxStatus = core.StatusReturn
)

// The bounds of a decision's counts and indices: what an explorer frontier
// entry stores (internal/explore). The kind is a byte.
const (
	minChoice = math.MinInt32
	maxChoice = math.MaxInt32
)

// checkEvent enforces the bounds on e, the event at position pos.
func checkEvent(pos int, e core.Event) error {
	if uint64(e.TID) > maxID || uint64(e.Domain) > maxID || e.Status > maxStatus {
		return fmt.Errorf("trace: event %d out of range (thread id %d, domain id %d, status %d; want ids 0..%d, status 0..%d)",
			pos, e.TID, e.Domain, uint8(e.Status), maxID, uint8(maxStatus))
	}
	return nil
}

// Save writes a schedule in the text format, choosing the lowest version that
// can represent it: v1 when all events are in the default domain, v2
// otherwise.
func Save(w io.Writer, events []core.Event) error {
	header := scheduleHeaderV1
	for _, e := range events {
		if e.Domain != 0 {
			header = scheduleHeaderV2
			break
		}
	}
	return saveText(w, header, events, nil)
}

// SaveExplored writes an explored schedule: the events in the v2 line format
// plus the run's decision log, under the v3 header.
func SaveExplored(w io.Writer, events []core.Event, choices []core.Choice) error {
	return saveText(w, HeaderExplored, events, choices)
}

// saveText is the one text writer: the header, a line per event led by its
// position (without the domain column under v1), a line per decision. Write
// errors stick to the bufio.Writer and surface from Flush.
func saveText(w io.Writer, header string, events []core.Event, choices []core.Choice) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, header)
	for i, e := range events {
		if err := checkEvent(i, e); err != nil {
			return err
		}
		fmt.Fprintf(bw, "%d %d %d %d %d", i, e.TID, uint8(e.Op), e.Obj, uint8(e.Status))
		if header != scheduleHeaderV1 {
			fmt.Fprintf(bw, " %d", e.Domain)
		}
		bw.WriteByte('\n')
	}
	for i, c := range choices {
		for _, v := range [...]int{c.N, c.Def, c.Index} {
			if v < minChoice || v > maxChoice {
				return fmt.Errorf("trace: decision %d (%v) out of range (want %d..%d)", i, c, minChoice, maxChoice)
			}
		}
		fmt.Fprintf(bw, "c %d %d %d %d\n", uint8(c.Kind), c.N, c.Def, c.Index)
	}
	return bw.Flush()
}

// Load reads a schedule written by Save, SaveExplored or SaveBinary,
// auto-detecting the format from the header line, so every consumer
// (qireplay, qistat, qitrace) reads every format. v1 events load with the
// default domain 0; the decision log of an explored schedule is discarded.
func Load(r io.Reader) ([]core.Event, error) {
	events, _, err := load(r, false)
	return events, err
}

// LoadExplored reads a v3 explored schedule, returning both the events and
// the decision log. It rejects other format versions — plain schedules carry
// no decisions to replay (load those with Load).
func LoadExplored(r io.Reader) ([]core.Event, []core.Choice, error) {
	return load(r, true)
}

// load holds the one header switch.
func load(r io.Reader, explored bool) ([]core.Event, []core.Choice, error) {
	br := logio.TakeReader(r)
	defer logio.PutReader(br, r)
	header, err := logio.ReadHeader(br, "trace: schedule")
	if err != nil {
		return nil, nil, err
	}
	if explored && header != HeaderExplored {
		return nil, nil, fmt.Errorf("trace: bad header %q (want %q; plain schedules load via Load)", header, HeaderExplored)
	}
	switch header {
	case scheduleHeaderV1, scheduleHeaderV2, HeaderExplored:
		return loadText(br, header)
	case scheduleHeaderV3B:
		events, err := loadBinary(br)
		return events, nil, err
	}
	return nil, nil, fmt.Errorf("trace: bad header %q (want %q, %q, %q or %q)", header, scheduleHeaderV1, scheduleHeaderV2, HeaderExplored, scheduleHeaderV3B)
}

// loadText parses the body of a text schedule: one event per line, five
// fields under v1 and six (the domain id) under v2 and v3. A line's sequence
// number must be its position; the event does not keep it. v3 additionally
// accepts the decision log after the last event line — a trailer, not an
// interleaving.
func loadText(r io.Reader, header string) ([]core.Event, []core.Choice, error) {
	eventFields := len(eventLine)
	if header == scheduleHeaderV1 {
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
		if header == HeaderExplored && f[0] == "c" {
			c, err := ParseChoice(f[1:])
			if err != nil {
				return fail(err)
			}
			choices = append(choices, c)
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
			TID: int32(v[1]), Op: core.OpKind(v[2]), Obj: v[3], Status: core.EventStatus(v[4]), Domain: int32(v[5]),
		})
	}
	return events, choices, logio.ScanErr(sc.Err(), "trace: schedule", line)
}

// eventLine names the columns of an event line, in order, with the largest
// value each may hold: the shared bounds, or else the width of the core.Event
// field.
var eventLine = [...]struct {
	name string
	max  uint64
}{
	{"sequence", math.MaxInt64},
	{"thread id", maxID},
	{"op", math.MaxUint8},
	{"object", math.MaxUint64},
	{"status", uint64(maxStatus)},
	{"domain id", maxID},
}

// field parses one non-negative decimal field of a schedule line.
func field(s, name string, max uint64) (uint64, error) {
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil || v > max {
		return 0, fmt.Errorf("bad %s %q (want 0..%d)", name, s, max)
	}
	return v, nil
}

// ParseChoice parses the four decimal fields of one decision — kind, n, def,
// index — and is the one parser of both text spellings of a core.Choice: the
// "c" line of an explored schedule and the kind:n:def:index quad of an
// explorer frontier line.
func ParseChoice(f []string) (core.Choice, error) {
	if len(f) != 4 {
		return core.Choice{}, fmt.Errorf("%d fields in a choice, want kind, n, def and index", len(f))
	}
	var v [4]int64
	for i, s := range f {
		min, max := int64(minChoice), int64(maxChoice)
		if i == 0 {
			min, max = 0, math.MaxUint8
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil || n < min || n > max {
			return core.Choice{}, fmt.Errorf("bad choice field %q (want %d..%d)", s, min, max)
		}
		v[i] = n
	}
	return core.Choice{Kind: policy.ChoiceKind(v[0]), N: int(v[1]), Def: int(v[2]), Index: int(v[3])}, nil
}
