package core

import (
	"strings"
	"sync"
	"testing"

	"qithread/internal/policy"
)

func TestStatsCounters(t *testing.T) {
	s := New(Config{Mode: policy.RoundRobin})
	var wg sync.WaitGroup
	waiter := s.Register("waiter")
	signaler := s.Register("signaler")
	if got := s.Stats().MaxLiveThreads; got != 2 {
		t.Fatalf("MaxLiveThreads = %d", got)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		s.GetTurn(waiter)
		s.TraceOp(waiter, OpCondWait, 1, StatusBlocked)
		s.Wait(waiter, 1, NoTimeout)
		s.TraceOp(waiter, OpCondWait, 1, StatusReturn)
		s.GetTurn(waiter)
		s.Exit(waiter)
	}()
	go func() {
		defer wg.Done()
		s.GetTurn(signaler)
		s.PutTurn(signaler) // let the waiter park
		s.GetTurn(signaler)
		s.TraceOp(signaler, OpCondSignal, 1, StatusOK)
		s.Signal(signaler, 1)
		s.PutTurn(signaler)
		s.GetTurn(signaler)
		s.TraceOp(signaler, OpSleep, 0, StatusBlocked)
		s.Wait(signaler, 99, 3) // times out
		s.GetTurn(signaler)
		s.Exit(signaler)
	}()
	wg.Wait()
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
