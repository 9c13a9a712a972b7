package core

import (
	"fmt"
	"slices"

	"qithread/internal/policy"
)

// model is Table 1 of the paper, the reference for the scheduler
// (modeldiff_test.go): a turn holder, the run and wake-up queues and one FIFO
// wait list per object as slices of thread ids; get_turn, put_turn, wait,
// signal and broadcast; the round-robin, logical-clock and virtual-clock
// bases; the five semantic policies' rules (Section 3). No lease, intrusive
// list, deadline heap, host or lock: every step is a loop over a slice.
type model struct {
	mode      policy.BaseKind
	set       policy.Set
	choose    func(policy.ChoiceKind, []int, int) int // nil: no chooser
	holder    int                                     // -1: the turn is free
	chosen    int                                     // the chooser's pick until granted, or -1
	run, wake []int
	waits     map[uint64][]int
	turn      int64
	parks     uint64 // park sequence: the FIFO order across all wait lists
	vLastOp   int64  // virtual end time of the last operation under the turn
	makespan  int64
	th        []mthread
	trace     []Event
	idleJumps int // times time jumped to a deadline (coverage)
}

type mthread struct {
	want         bool // asking for the turn: in get_turn, or parked in wait
	clock, vtime int64
	obj, seq     uint64     // while parked: the object and the park sequence number,
	deadline     int64      // and the turn the wait times out at (0: never)
	status       WaitStatus // how the last wait ended
	ps           policy.PerThread
}

// newModel is cfg's model with n threads registered in id order, the turn free.
func newModel(cfg Config, n int, choose func(policy.ChoiceKind, []int, int) int) *model {
	m := &model{mode: cfg.Mode, set: cfg.Policies, choose: choose, holder: -1, chosen: -1,
		waits: map[uint64][]int{}, th: make([]mthread, n)}
	if cfg.Mode != policy.RoundRobin {
		m.set = policy.NoPolicies // the clock baselines run without the semantic policies
	}
	for t := range n {
		m.run = append(m.run, t)
	}
	return m
}

func (m *model) requireTurn(t int, op string) {
	if m.holder != t {
		panic(fmt.Sprintf("model: %s by T%d, which does not hold the turn (holder T%d)", op, t, m.holder))
	}
}

// getTurn is get_turn: anyone but the holder asks for the turn.
func (m *model) getTurn(t int) {
	if m.holder != t {
		m.th[t].want = true
		m.pass()
	}
}

// putTurn is put_turn: the holder goes to the run queue's tail.
func (m *model) putTurn(t int) {
	m.requireTurn(t, "put_turn")
	m.tick(t)
	m.unrun(t)
	m.run = append(m.run, t)
	m.holder = -1
	m.pass()
}

// wait is wait: the holder parks at the tail of obj's wait list, for at most
// timeout turns when timeout > 0. Blocking ends a WakeAMAP lease.
func (m *model) wait(t int, obj uint64, timeout int64) {
	m.requireTurn(t, "wait")
	th := &m.th[t]
	th.ps.Wake = false
	m.tick(t)
	m.unrun(t)
	m.parks++
	th.obj, th.deadline, th.seq, th.want = obj, 0, m.parks, true
	if timeout > 0 {
		th.deadline = m.turn + timeout
	}
	m.waits[obj] = append(m.waits[obj], t)
	m.holder = -1
	m.pass()
}

// signal is signal: the head of obj's wait list — or a chooser's pick among
// two or more — becomes runnable. It returns how many still wait on obj.
func (m *model) signal(t int, obj uint64) int {
	m.requireTurn(t, "signal")
	q := m.waits[obj]
	if len(q) == 0 {
		return 0
	}
	w := q[0]
	if m.choose != nil && len(q) > 1 {
		if c := m.choose(policy.ChooseWake, q, 0); c > 0 && c < len(q) {
			w = q[c]
		}
	}
	m.unwait(w)
	m.wakeUp(w, WaitSignaled, m.th[t].vtime)
	return len(q) - 1
}

// broadcast is broadcast: every waiter on obj becomes runnable, in FIFO order.
func (m *model) broadcast(t int, obj uint64) {
	m.requireTurn(t, "broadcast")
	for _, w := range m.waits[obj] {
		m.wakeUp(w, WaitSignaled, m.th[t].vtime)
	}
	delete(m.waits, obj)
}

// exit ends the holder's thread.
func (m *model) exit(t int) {
	m.requireTurn(t, "exit")
	m.tick(t)
	m.makespan = max(m.makespan, m.th[t].vtime)
	m.unrun(t)
	m.holder = -1
	m.pass()
}

// traceOp records the holder's operation and charges its virtual time: after
// the previous one under the turn, a native operation's under VirtualParallel.
func (m *model) traceOp(t int, op OpKind, obj uint64, st EventStatus) {
	m.requireTurn(t, "trace")
	th := &m.th[t]
	if m.mode == policy.VirtualClock {
		th.vtime += VSyncCostNative
	} else {
		th.vtime = max(th.vtime, m.vLastOp) + vSyncCostTurn
		m.vLastOp = th.vtime
	}
	m.trace = append(m.trace, Event{TID: int32(t), Op: op, Obj: obj, Status: st})
}

// addWork is compute, which can change a clock base's pick.
func (m *model) addWork(t int, n int64) {
	m.th[t].vtime += n
	m.th[t].clock += n
	if m.mode != policy.RoundRobin {
		m.pass()
	}
}

// The semantic policies. release, the wrappers' release point, keeps the turn
// for CreateAll's armed keep_turn (once), CSWhole in a critical section and
// WakeAMAP while t's last signal left waiters; otherwise it is put_turn.
func (m *model) release(t int) {
	ps := &m.th[t].ps
	switch {
	case ps.Armed:
		ps.Armed = false
	case ps.CSDepth == 0 && !ps.Wake:
		m.putTurn(t)
	}
}

func (m *model) arm(t int) { m.th[t].ps.Armed = m.th[t].ps.Armed || m.set.Has(policy.CreateAll) }

func (m *model) acquire(t int) bool {
	if m.set.Has(policy.CSWhole) {
		m.th[t].ps.CSDepth++
	}
	return m.set.Has(policy.CSWhole)
}

func (m *model) leave(t int) { m.th[t].ps.CSDepth -= min(m.th[t].ps.CSDepth, 1) }

func (m *model) signaled(t, left int) { m.th[t].ps.Wake = m.set.Has(policy.WakeAMAP) && left > 0 }

// tick ends a turn: time advances, the clock ticks, expired waiters wake.
func (m *model) tick(t int) {
	m.turn++
	if m.mode == policy.LogicalClock {
		m.th[t].clock++
	}
	m.expire()
}

// expire wakes the waiters whose deadline has come, earliest (deadline, seq) first.
func (m *model) expire() {
	for w := m.earliest(); w >= 0 && m.th[w].deadline <= m.turn; w = m.earliest() {
		m.unwait(w)
		m.wakeUp(w, WaitTimeout, 0)
	}
}

// earliest is the timed waiter with the smallest (deadline, seq), -1 if none.
func (m *model) earliest() int {
	best := -1
	for _, q := range m.waits {
		for _, w := range q {
			a, b := &m.th[w], &m.th[max(best, 0)]
			if a.deadline > 0 && (best < 0 || a.deadline < b.deadline || a.deadline == b.deadline && a.seq < b.seq) {
				best = w
			}
		}
	}
	return best
}

func (m *model) unwait(w int) { m.waits[m.th[w].obj] = without(m.waits[m.th[w].obj], w) }

// wakeUp makes a waiter runnable, no earlier in virtual time than its waker.
func (m *model) wakeUp(t int, st WaitStatus, wakerV int64) {
	m.th[t].status = st
	m.th[t].vtime = max(m.th[t].vtime, wakerV)
	if m.set.Has(policy.BoostBlocked) {
		m.wake = append(m.wake, t)
	} else {
		m.run = append(m.run, t)
	}
}

func (m *model) unrun(t int) { m.run, m.wake = without(m.run, t), without(m.wake, t) }

// without is q less t.
func without(q []int, t int) []int {
	if i := slices.Index(q, t); i >= 0 {
		return slices.Delete(q, i, i+1)
	}
	return q
}

// pass grants a free turn to the eligible thread if it asks, or leaves it
// free for it. With nobody runnable, time jumps to the earliest deadline.
func (m *model) pass() {
	for m.holder < 0 {
		if e := m.eligible(); e >= 0 {
			if m.th[e].want {
				m.th[e].want, m.chosen, m.holder = false, -1, e
			}
			return
		}
		w := m.earliest()
		if w < 0 {
			return // nothing runs or ever will: done, or deadlocked
		}
		m.turn = m.th[w].deadline
		m.idleJumps++
		m.expire()
	}
}

// eligible is the chooser's committed pick, else the policies' — which a
// chooser may override once per handoff, when it asks and there is a choice.
func (m *model) eligible() int {
	if m.chosen >= 0 {
		return m.chosen
	}
	def := m.pick()
	cands := append(slices.Clone(m.run), m.wake...)
	if def < 0 || m.choose == nil || !m.th[def].want || len(cands) < 2 {
		return def
	}
	m.chosen = def
	if c := m.choose(policy.ChooseTurn, cands, slices.Index(cands, def)); c >= 0 && c < len(cands) {
		m.chosen = cands[c]
	}
	return m.chosen
}

// pick is the policies' choice: BoostBlocked runs the wake-up queue first,
// round robin the run queue's head, a clock base the runnable thread with
// the smallest (clock, id) — virtual clock under VirtualParallel.
func (m *model) pick() int {
	if len(m.wake) > 0 && m.set.Has(policy.BoostBlocked) {
		return m.wake[0]
	}
	if m.mode == policy.RoundRobin {
		if len(m.run) == 0 {
			return -1
		}
		return m.run[0]
	}
	best, bestKey := -1, int64(0)
	for _, t := range append(slices.Clone(m.run), m.wake...) {
		key := m.th[t].clock
		if m.mode == policy.VirtualClock {
			key = m.th[t].vtime
		}
		if best < 0 || key < bestKey || key == bestKey && t < best {
			best, bestKey = t, key
		}
	}
	return best
}
