package trace

import (
	"strings"
	"testing"

	"qithread/internal/core"
)

func TestGanttLayout(t *testing.T) {
	events := []core.Event{
		{TID: 0, Op: core.OpCreate, Obj: 3},
		{TID: 1, Op: core.OpThreadBegin},
		{TID: 1, Op: core.OpMutexLock, Obj: 1},
		{TID: 0, Op: core.OpMutexLock, Obj: 1, Status: core.StatusBlocked},
		{TID: 1, Op: core.OpMutexUnlock, Obj: 1},
		{TID: 0, Op: core.OpMutexLock, Obj: 1, Status: core.StatusReturn},
		{TID: 1, Op: core.OpThreadEnd},
	}
	var sb strings.Builder
	Gantt(&sb, events, 0)
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // ruler + 2 thread rows
		t.Fatalf("expected 3 lines, got %d:\n%s", len(lines), out)
	}
	row0, row1 := lines[1], lines[2]
	if !strings.HasPrefix(row0, "T0") || !strings.HasPrefix(row1, "T1") {
		t.Fatalf("rows mislabeled:\n%s", out)
	}
	// Column content: T0 has C at col 0, l at col 3, r at col 5;
	// T1 has B at 1, L at 2, U at 4, E at 6 (after the 7-char prefix).
	body0 := row0[7:]
	body1 := row1[7:]
	if body0[0] != 'C' || body0[3] != 'l' || body0[5] != 'r' {
		t.Errorf("T0 row wrong: %q", body0)
	}
	if body1[1] != 'B' || body1[2] != 'L' || body1[4] != 'U' || body1[6] != 'E' {
		t.Errorf("T1 row wrong: %q", body1)
	}
	// Each column has exactly one non-dot glyph.
	for col := 0; col < 7; col++ {
		marks := 0
		if body0[col] != '.' {
			marks++
		}
		if body1[col] != '.' {
			marks++
		}
		if marks != 1 {
			t.Errorf("column %d has %d marks", col, marks)
		}
	}
}

func TestGanttEmptyAndLimit(t *testing.T) {
	var sb strings.Builder
	Gantt(&sb, nil, 10)
	if !strings.Contains(sb.String(), "empty") {
		t.Fatalf("empty schedule not reported: %q", sb.String())
	}
	events := genSchedule(3, 50)
	sb.Reset()
	Gantt(&sb, events, 10)
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	// Width limited to 10 columns + 7-char prefix.
	for _, l := range lines[1:] {
		if len(l) != 7+10 {
			t.Fatalf("row width %d, want 17: %q", len(l), l)
		}
	}
}
