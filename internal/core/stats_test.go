package core

import (
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"qithread/internal/policy"
)

func TestStatsCounters(t *testing.T) {
	s := New(Config{Mode: policy.RoundRobin})
	hostedRun(s, 2, func(i int, th *Thread) {
		if i == 0 { // the waiter
			if got := s.Stats().MaxLiveThreads; got != 2 {
				t.Errorf("MaxLiveThreads = %d", got)
			}
			s.GetTurn(th)
			s.TraceOp(th, OpCondWait, 1, StatusBlocked)
			s.Wait(th, 1, NoTimeout)
			s.TraceOp(th, OpCondWait, 1, StatusReturn)
			s.GetTurn(th)
			s.Exit(th)
			return
		}
		s.GetTurn(th)
		s.PutTurn(th) // let the waiter park
		s.GetTurn(th)
		s.TraceOp(th, OpCondSignal, 1, StatusOK)
		s.Signal(th, 1)
		s.PutTurn(th)
		s.GetTurn(th)
		s.TraceOp(th, OpSleep, 0, StatusBlocked)
		s.Wait(th, 99, 3) // times out
		s.GetTurn(th)
		s.Exit(th)
	})
	st := s.Stats()
	if st.Ops != 4 {
		t.Errorf("Ops = %d, want 4", st.Ops)
	}
	if st.Waits != 2 {
		t.Errorf("Waits = %d, want 2", st.Waits)
	}
	if st.Signals != 1 {
		t.Errorf("Signals = %d, want 1", st.Signals)
	}
	if st.WokenBySignal != 1 || st.WokenByTimeout != 1 {
		t.Errorf("Woken = %d/%d, want 1/1", st.WokenBySignal, st.WokenByTimeout)
	}
	if st.Turns == 0 {
		t.Error("Turns should be positive")
	}
	if !strings.Contains(st.String(), "ops=4") {
		t.Errorf("String() = %q", st.String())
	}
}

// TestCountersStringNamesEveryField: the one-line summary renders every
// counter, in declaration order, so a counter added to Counters cannot be
// left out of it. Each field gets a distinct value, and the numbers the
// line prints must be exactly those values in field order.
func TestCountersStringNamesEveryField(t *testing.T) {
	var c Counters
	v := reflect.ValueOf(&c).Elem()
	var want []string
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(101 + i))
		want = append(want, strconv.Itoa(101+i))
	}
	var got []string
	for _, m := range regexp.MustCompile(`=(\d+)`).FindAllStringSubmatch(c.String(), -1) {
		got = append(got, m[1])
	}
	if !slices.Equal(got, want) {
		t.Errorf("String() = %q prints %v, want every field of Counters in order: %v", c.String(), got, want)
	}
}
