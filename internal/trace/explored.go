package trace

import (
	"bufio"
	"fmt"
	"io"

	"qithread/internal/core"
	"qithread/internal/logio"
)

// Explored-schedule files ("qithread-schedule v3") extend the v2 text format
// with the DECISION LOG of a schedule-space exploration run: after the event
// lines, one line per resolved choice point, in resolution order:
//
//	qithread-schedule v3
//	<seq> <tid> <op-number> <obj> <status> <domain>
//	...
//	c <kind> <n> <def> <index>
//	...
//
// where <kind> numbers policy.ChoiceKind (0 turn, 1 wake, 2 admit), <n> is
// the candidate count, <def> the index the configured policy would have
// taken, and <index> the index actually taken. The pair (events, choices) is
// a complete repro: the events drive turn order through schedule replay
// (Config.Replay) while the choices drive the decisions replay cannot express
// — which waiter each signal woke, where admission batch boundaries fell.
//
// The version gate keeps every existing consumer and golden byte-identical:
// Save never emits v3 (only SaveExplored does), and Load reads v3 by
// discarding the choice lines, so schedule-agnostic tools (qistat, qitrace)
// work on repro files unchanged.

const scheduleHeaderV3 = "qithread-schedule v3"

// SaveExplored writes an explored schedule: the events in the v2 line format
// plus the run's decision log, under the v3 header.
func SaveExplored(w io.Writer, events []core.Event, choices []core.Choice) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, scheduleHeaderV3); err != nil {
		return err
	}
	for _, e := range events {
		if _, err := fmt.Fprintf(bw, "%d %d %d %d %d %d\n", e.Seq, e.TID, uint8(e.Op), e.Obj, uint8(e.Status), e.Domain); err != nil {
			return err
		}
	}
	for _, c := range choices {
		if _, err := fmt.Fprintf(bw, "c %d %d %d %d\n", uint8(c.Kind), c.N, c.Def, c.Index); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadExplored reads a v3 explored schedule, returning both the events and
// the decision log. It rejects other format versions — plain schedules carry
// no decisions to replay (load those with Load).
func LoadExplored(r io.Reader) ([]core.Event, []core.Choice, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	header, err := logio.ReadHeader(br, "trace: schedule")
	if err != nil {
		return nil, nil, err
	}
	if header != scheduleHeaderV3 {
		return nil, nil, fmt.Errorf("trace: bad header %q (want %q; plain schedules load via Load)", header, scheduleHeaderV3)
	}
	return loadTextBody(br, 3)
}
