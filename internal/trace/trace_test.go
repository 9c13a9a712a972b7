package trace

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"qithread/internal/core"
)

func ev(tid int, op core.OpKind, obj uint64) core.Event {
	return core.Event{TID: int32(tid), Op: op, Obj: obj}
}

func genSchedule(seed int64, n int) []core.Event {
	out := make([]core.Event, n)
	x := uint64(seed)*2654435761 + 1
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = core.Event{
			TID:    int32(x % 7),
			Op:     core.OpKind(1 + x%12),
			Obj:    (x >> 8) % 5,
			Status: core.EventStatus(x % 3),
		}
	}
	return out
}

// TestHashDeterministic: equal schedules hash equal; a single perturbation
// changes the hash.
func TestHashDeterministic(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		s := genSchedule(seed, int(n)+2)
		if Hash(s) != Hash(append([]core.Event(nil), s...)) {
			return false
		}
		mut := append([]core.Event(nil), s...)
		mut[len(mut)/2].TID++
		return Hash(mut) != Hash(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCommonPrefix(t *testing.T) {
	a := []core.Event{ev(0, core.OpMutexLock, 1), ev(1, core.OpMutexLock, 1), ev(0, core.OpMutexUnlock, 1)}
	b := []core.Event{a[0], a[1], ev(2, core.OpMutexLock, 1)}
	if got := CommonPrefix(a, b); got != 2 {
		t.Fatalf("CommonPrefix = %d", got)
	}
	if !StablePrefix(a, a[:2]) {
		t.Fatal("a should be prefix-stable with its own prefix")
	}
	if StablePrefix(a, b) {
		t.Fatal("a and b diverge at 2 of 3")
	}
}

// TestCommonPrefixProperties: symmetric, bounded by min length, full on
// self-prefix.
func TestCommonPrefixProperties(t *testing.T) {
	f := func(seed int64, n uint8, cut uint8) bool {
		s := genSchedule(seed, int(n)+2)
		k := int(cut) % len(s)
		pre := s[:k]
		if CommonPrefix(s, pre) != k || CommonPrefix(pre, s) != k {
			return false
		}
		other := genSchedule(seed+1, len(s))
		cp := CommonPrefix(s, other)
		return cp >= 0 && cp <= len(s) && cp == CommonPrefix(other, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistinctSchedules(t *testing.T) {
	a := genSchedule(1, 20)
	b := genSchedule(2, 20)
	for _, c := range []struct {
		name      string
		schedules [][]core.Event
		want      []int
	}{
		{"identical schedules", [][]core.Event{a, a, a}, []int{1, 1, 1}},
		{"different schedules", [][]core.Event{a, b}, []int{1, 2}},
		// A prefix counts as the same schedule (shorter input, same policy).
		{"prefix grouping", [][]core.Event{a, b, a[:10], b}, []int{1, 2, 1, 2}},
		{"empty", nil, []int{}},
	} {
		if got := ScheduleClasses(c.schedules); !slices.Equal(got, c.want) {
			t.Errorf("%s: classes %v, want %v", c.name, got, c.want)
		}
	}
}

func TestFormat(t *testing.T) {
	s := []core.Event{
		{TID: 0, Op: core.OpCreate, Obj: 4},
		{TID: 1, Op: core.OpThreadBegin},
		{TID: 0, Op: core.OpMutexLock, Obj: 1, Status: core.StatusBlocked},
	}
	out := Format(s, 0)
	if !strings.Contains(out, "create") || !strings.Contains(out, "thread_begin") || !strings.Contains(out, "blocks") {
		t.Fatalf("format output missing pieces:\n%s", out)
	}
	if lines := strings.Count(Format(s, 2), "\n"); lines != 2 {
		t.Fatalf("limit ignored: %d lines", lines)
	}
}
