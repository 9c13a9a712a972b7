package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"qithread/internal/core"
)

// Gantt renders a schedule as a per-thread timeline, one column per
// scheduling turn, mirroring the layout of Figure 1b: reading down a column
// shows which thread executed each turn; letters encode the operation kind.
//
//	turn        0         1         2
//	            0123456789012345678901234
//	T0 producer CC..L.U.S....L.U.S.......
//	T1 consumer   B.l...w......r.U........
//
// Legend: C create, B begin, E end, L lock, l lock-blocked, r lock/wait
// return, U unlock, S signal, A broadcast, w wait-blocked, P post,
// s sem-wait, b barrier, J join, j join-blocked, Y yield, D dummy, o other.
func Gantt(w io.Writer, events []core.Event, width int) {
	if len(events) == 0 {
		fmt.Fprintln(w, "(empty schedule)")
		return
	}
	if width <= 0 || width > len(events) {
		width = len(events)
	}
	var tids []int
	seen := map[int]bool{}
	for _, e := range events {
		if tid := int(e.TID); !seen[tid] {
			seen[tid] = true
			tids = append(tids, tid)
		}
	}
	sort.Ints(tids)
	rowOf := map[int]int{}
	for i, tid := range tids {
		rowOf[tid] = i
	}
	rows := make([][]byte, len(tids))
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", width))
	}
	for i, e := range events[:width] {
		rows[rowOf[int(e.TID)]][i] = glyph(e)
	}
	// Ruler.
	ruler := make([]byte, width)
	for i := range ruler {
		ruler[i] = byte('0' + (i/10)%10)
		if i%10 != 0 {
			ruler[i] = ' '
		}
	}
	fmt.Fprintf(w, "%-6s %s\n", "turn", string(ruler))
	for i, tid := range tids {
		fmt.Fprintf(w, "T%-5d %s\n", tid, string(rows[i]))
	}
}

func glyph(e core.Event) byte {
	switch e.Op {
	case core.OpCreate:
		return 'C'
	case core.OpThreadBegin:
		return 'B'
	case core.OpThreadEnd:
		return 'E'
	case core.OpMutexLock:
		switch e.Status {
		case core.StatusBlocked:
			return 'l'
		case core.StatusReturn:
			return 'r'
		default:
			return 'L'
		}
	case core.OpMutexUnlock:
		return 'U'
	case core.OpCondSignal:
		return 'S'
	case core.OpCondBroadcast:
		return 'A'
	case core.OpCondWait, core.OpCondTimedWait:
		if e.Status == core.StatusReturn {
			return 'r'
		}
		return 'w'
	case core.OpSemPost:
		return 'P'
	case core.OpSemWait, core.OpSemTryWait, core.OpSemTimedWait:
		if e.Status == core.StatusReturn {
			return 'r'
		}
		return 's'
	case core.OpBarrierWait:
		return 'b'
	case core.OpJoin:
		if e.Status == core.StatusBlocked {
			return 'j'
		}
		return 'J'
	case core.OpYield:
		return 'Y'
	case core.OpDummySync:
		return 'D'
	default:
		return 'o'
	}
}
