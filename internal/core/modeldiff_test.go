package core

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"qithread/internal/policy"
)

// The differential test of the scheduler against the model of Table 1
// (model_test.go). A script (quick_test.go) runs on a hosted scheduler —
// HostThreads, one Body per script thread — while the model is stepped with
// the same primitives in the same order, and after every primitive the two
// must agree on the turn holder, the run and wake-up queues, every wait list,
// the turn count, each thread's request flag, clocks, wait status and policy
// state, the schedule, and every chooser consultation. The scheduler's one
// state the model lacks is the solo lease, and the comparison says exactly
// where it may show (soloLease). A compute op is a hosted yield the model
// does not see (Table 1 has no such primitive): a pure payload runs when the
// driver rejoins the thread, and the rejoin must be FIFO and leave the state
// as the model has it.

// lockstep runs script threads on a scheduler and, when m is set, on the
// model in lockstep. Each primitive is applied to the model first: the
// scheduler may suspend the calling thread, and whatever runs meanwhile
// must find the model already past the call.
type lockstep struct {
	s         *Scheduler
	m         *model // nil: the scheduler runs alone
	ths       []*Thread
	real, ref *answers // the chooser answering s, and its twin answering m
	cov       *coverage
	computing []*Thread // with m: threads in a compute op, in the order they yielded
}

// coverage counts what the scripts exercised.
type coverage struct {
	scripts, ops, idleJumps, timeouts, leaseExtends, policyKeeps int
	turnChoices, wakeChoices, destroyBusy, destroyIdle           int
	computes, overlapped                                         int // compute ops; of them, rejoined after another thread ran
}

// answers is a Chooser that gives a fixed, repeating sequence of answers and
// logs every consultation. An answer out of range keeps the default.
type answers struct {
	seq []int
	log []consultation
}

type consultation struct {
	kind policy.ChoiceKind
	ids  []int
	def  int
}

func (a *answers) Choose(kind policy.ChoiceKind, ids []int, n, def int) int {
	a.log = append(a.log, consultation{kind, slices.Clone(ids[:n]), def})
	return a.seq[(len(a.log)-1)%len(a.seq)]
}

// thread runs one script thread's operations, then its exit.
func (l *lockstep) thread(th *Thread, ops []scriptOp) {
	const lockObj = 4
	for _, op := range ops {
		obj := op.obj()
		switch op.kind % nScriptOps {
		case opYield:
			l.turn(th, OpYield, 0, StatusOK)
			l.release(th)
		case opSignal:
			l.turn(th, OpCondSignal, obj, StatusOK)
			l.signal(th, obj)
			l.release(th)
		case opWait:
			l.turn(th, OpCondWait, obj, StatusBlocked)
			l.wait(th, obj, op.timeout())
			l.traceOp(th, OpCondWait, obj, StatusReturn)
			l.release(th)
		case opWork:
			l.addWork(th, op.work())
		case opBroadcast:
			l.turn(th, OpCondBroadcast, obj, StatusOK)
			l.broadcast(th, obj)
			l.release(th)
		case opArm:
			l.getTurn(th)
			l.arm(th)
		case opLock:
			l.turn(th, OpMutexLock, lockObj, StatusOK)
			l.acquire(th)
		case opUnlock:
			l.turn(th, OpMutexUnlock, lockObj, StatusOK)
			l.leave(th)
			l.release(th)
		case opDestroy:
			l.turn(th, OpCondDestroy, obj, StatusOK)
			l.destroy(th, obj)
			l.release(th)
		case opCompute:
			l.compute(th, op.work())
		}
	}
	l.turn(th, OpThreadEnd, 0, StatusOK)
	l.exit(th)
}

// --- the primitives, each applied to the model, then the scheduler ---

func (l *lockstep) getTurn(th *Thread) {
	if l.m != nil {
		l.m.getTurn(th.id)
	}
	l.s.GetTurn(th)
	l.check(th, "get_turn")
}

func (l *lockstep) traceOp(th *Thread, op OpKind, obj uint64, st EventStatus) {
	if l.m != nil {
		l.m.traceOp(th.id, op, obj, st)
	}
	l.s.TraceOp(th, op, obj, st)
	l.check(th, "trace "+op.String())
}

func (l *lockstep) turn(th *Thread, op OpKind, obj uint64, st EventStatus) {
	l.getTurn(th)
	l.traceOp(th, op, obj, st)
}

// release is the wrappers' release point: a policy lease keeps the turn,
// otherwise PutTurn.
func (l *lockstep) release(th *Thread) {
	if l.m != nil {
		l.m.release(th.id)
	}
	l.put(th)
	l.check(th, "release")
}

func (l *lockstep) put(th *Thread) {
	if l.s.Stack().ExtendLease(th) {
		l.cov.policyKeeps++
	} else {
		l.s.PutTurn(th)
	}
}

func (l *lockstep) wait(th *Thread, obj uint64, timeout int64) {
	if l.m != nil {
		l.m.wait(th.id, obj, timeout)
	}
	l.s.Wait(th, obj, timeout) // its status is th.waitStatus, which check compares
	l.check(th, fmt.Sprintf("wait on %d", obj))
}

func (l *lockstep) signal(th *Thread, obj uint64) {
	want := 0
	if l.m != nil {
		want = l.m.signal(th.id, obj)
		l.m.signaled(th.id, want)
	}
	left := l.s.Signal(th, obj)
	l.s.Stack().OnSignal(th, left)
	if l.m != nil && left != want {
		panic(fmt.Sprintf("signal on %d by %v left %d waiters, model %d", obj, th, left, want))
	}
	l.check(th, fmt.Sprintf("signal on %d", obj))
}

func (l *lockstep) broadcast(th *Thread, obj uint64) {
	if l.m != nil {
		l.m.broadcast(th.id, obj)
		l.m.signaled(th.id, 0)
	}
	l.s.Broadcast(th, obj)
	l.s.Stack().OnBroadcast(th)
	l.check(th, fmt.Sprintf("broadcast on %d", obj))
}

func (l *lockstep) addWork(th *Thread, n int64) {
	if l.m != nil {
		l.m.addWork(th.id, n)
	}
	l.s.AddWork(th, n)
	l.check(th, "work")
}

func (l *lockstep) arm(th *Thread) {
	if l.m != nil {
		l.m.arm(th.id)
	}
	l.s.Stack().OnArm(th)
	l.check(th, "keep_turn")
}

// acquire enters a critical section, which keeps the turn when a policy
// says so (Mutex.Lock); otherwise it is a release point.
func (l *lockstep) acquire(th *Thread) {
	if l.m != nil && !l.m.acquire(th.id) {
		l.m.release(th.id)
	}
	if !l.s.Stack().OnAcquire(th) {
		l.put(th)
	}
	l.check(th, "lock")
}

func (l *lockstep) leave(th *Thread) {
	if l.m != nil {
		l.m.leave(th.id)
	}
	l.s.Stack().OnRelease(th)
	l.check(th, "unlock")
}

func (l *lockstep) destroy(th *Thread, obj uint64) {
	if l.m != nil {
		if len(l.m.waits[obj]) > 0 {
			l.cov.destroyBusy++
		} else {
			l.cov.destroyIdle++
		}
		l.m.requireTurn(th.id, "destroy") // its waiters stay on its wait list
	}
	l.s.DestroyObject(th, obj)
	l.check(th, fmt.Sprintf("destroy %d", obj))
}

// compute hands a pure payload off and yields on the FIFO outside the turn
// (YieldComputing); the model takes no step. With the model the run is
// hosted, and the payload's Join, which the driver calls at the rejoin,
// checks it rejoins the oldest thread still computing.
func (l *lockstep) compute(th *Thread, n int64) {
	j := &scriptJob{n: n}
	if l.m != nil {
		l.computing = append(l.computing, th)
		j.l, j.th, j.ops = l, th, l.cov.ops
	}
	l.s.YieldComputing(th, j)
	if !j.done {
		panic(fmt.Sprintf("%v resumed from a compute op before its payload ran", th))
	}
	l.check(th, "compute")
}

// scriptJob is a compute op's payload: n steps of an LCG.
type scriptJob struct {
	n    int64
	v    uint64
	done bool
	l    *lockstep // with the model: the FIFO to check, the thread and the primitives checked at its yield
	th   *Thread
	ops  int
}

func (j *scriptJob) Join() {
	if l := j.l; l != nil {
		if len(l.computing) == 0 || l.computing[0] != j.th {
			panic(fmt.Sprintf("rejoined %v, but the oldest thread computing is %v", j.th, l.computing))
		}
		l.computing = l.computing[1:]
		l.cov.computes++
		if l.cov.ops > j.ops {
			l.cov.overlapped++
		}
	}
	v := uint64(j.n)
	for range j.n {
		v = v*6364136223846793005 + 1442695040888963407
	}
	j.v, j.done = v, true
}

func (l *lockstep) exit(th *Thread) {
	if l.m != nil {
		l.m.exit(th.id)
	}
	l.s.Exit(th)
	l.check(th, "exit")
}

// --- the comparison ---

// check panics with both states when the scheduler and the model disagree.
// In a hosted run the panic reaches the driver, whatever thread raised it.
func (l *lockstep) check(th *Thread, what string) {
	if l.m == nil {
		return
	}
	l.cov.ops++
	if d := l.diff(); d != "" {
		panic(fmt.Sprintf("after %v's %s: %s\n%smodel: %+v", th, what, d, l.s.dumpLocked(), *l.m))
	}
}

func (l *lockstep) diff() string {
	s, m := l.s, l.m
	if h := tid(s.holder); h != m.holder && !l.soloLease(h) {
		return fmt.Sprintf("holder T%d, model T%d", h, m.holder)
	}
	if got := queueIDs(&s.runQ); !slices.Equal(got, m.run) {
		return fmt.Sprintf("run queue %v, model %v", got, m.run)
	}
	if got := queueIDs(&s.wakeQ); !slices.Equal(got, m.wake) {
		return fmt.Sprintf("wake-up queue %v, model %v", got, m.wake)
	}
	if s.turn != m.turn {
		return fmt.Sprintf("turn %d, model %d", s.turn, m.turn)
	}
	if c := tid(s.chosen); c != m.chosen {
		return fmt.Sprintf("chooser's committed grantee T%d, model T%d", c, m.chosen)
	}
	got, want := map[uint64][]parked{}, map[uint64][]parked{}
	timed := 0
	for obj, q := range s.waitLists {
		for t := q.head; t != nil; t = t.qnext {
			got[obj] = append(got[obj], parked{t.id, t.deadline, t.seq})
		}
	}
	for obj, q := range m.waits {
		for _, t := range q {
			want[obj] = append(want[obj], parked{t, m.th[t].deadline, m.th[t].seq})
			if m.th[t].deadline > 0 {
				timed++
			}
		}
	}
	if !maps.EqualFunc(got, want, slices.Equal) {
		return fmt.Sprintf("wait lists %v, model %v", got, want)
	}
	if s.nWaiting != waiting(m) || s.timers.len() != timed {
		return fmt.Sprintf("%d waiting, %d timed; model %d, %d", s.nWaiting, s.timers.len(), waiting(m), timed)
	}
	for i, th := range l.ths {
		mt := m.th[i]
		if th.wantTurn != mt.want || th.clock != mt.clock || th.vtime != mt.vtime ||
			th.waitStatus != mt.status || th.pstate != mt.ps {
			return fmt.Sprintf("%v: asking %v, clock %d, vtime %d, %v, policy %+v; model %+v",
				th, th.wantTurn, th.clock, th.vtime, th.waitStatus, th.pstate, mt)
		}
	}
	if tr := s.Trace(); !slices.Equal(tr, m.trace) {
		return fmt.Sprintf("trace\n  %v\nmodel\n  %v", tr, m.trace)
	}
	if l.real != nil && !reflect.DeepEqual(l.real.log, l.ref.log) {
		return fmt.Sprintf("chooser consultations\n  %+v\nmodel\n  %+v", l.real.log, l.ref.log)
	}
	return ""
}

// soloLease reports whether the scheduler's holder h stands for the model's
// free turn: PutTurn let h keep the turn where put_turn released it, h being
// the only live thread — alone in the run queue, nobody waiting — and not
// asking for the turn, so the model grants it back at h's next get_turn.
func (l *lockstep) soloLease(h int) bool {
	m := l.m
	return h >= 0 && m.holder < 0 && !l.s.cfg.NoLease &&
		slices.Equal(m.run, []int{h}) && len(m.wake) == 0 && waiting(m) == 0 && !m.th[h].want
}

// parked is a wait-list entry as the comparison sees it.
type parked struct {
	tid      int
	deadline int64
	seq      uint64
}

func waiting(m *model) int {
	n := 0
	for _, q := range m.waits {
		n += len(q)
	}
	return n
}

func tid(t *Thread) int {
	if t == nil {
		return -1
	}
	return t.id
}

func queueIDs(q *tqueue) []int {
	ids := []int{}
	for t := q.head; t != nil; t = t.qnext {
		ids = append(ids, t.id)
	}
	return ids
}

// runLockstep runs prog on a hosted scheduler under cfg with the model in
// lockstep — with a chooser giving the answers seq when seq is not empty —
// adds what it exercised to cov, and returns the first disagreement, refusal
// of the model or panic of the scheduler.
func runLockstep(prog [][]scriptOp, cfg Config, seq []int, cov *coverage) (err error) {
	l := &lockstep{cov: cov}
	var choose func(policy.ChoiceKind, []int, int) int
	if len(seq) > 0 {
		l.real, l.ref = &answers{seq: seq}, &answers{seq: seq}
		cfg.Chooser = l.real
		choose = func(kind policy.ChoiceKind, ids []int, def int) int { return l.ref.Choose(kind, ids, len(ids), def) }
	}
	cfg.Record = true
	l.s = New(cfg)
	l.m = newModel(cfg, len(prog), choose)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	l.s.HostThreads()
	for i := range prog {
		l.ths = append(l.ths, l.s.Register(fmt.Sprintf("t%d", i)))
	}
	for i, th := range l.ths[1:] {
		l.s.StartHosted(th, bodyFunc(func() { l.thread(th, prog[i+1]) }))
	}
	l.thread(l.ths[0], prog[0])
	l.s.DrainHosted()
	if l.s.VirtualMakespan() != l.m.makespan {
		return fmt.Errorf("virtual makespan %d, model %d", l.s.VirtualMakespan(), l.m.makespan)
	}
	st := l.s.Stats()
	cov.scripts++
	cov.idleJumps += l.m.idleJumps
	cov.timeouts += int(st.WokenByTimeout)
	cov.leaseExtends += int(st.LeaseExtends)
	if l.real != nil {
		for _, c := range l.real.log {
			if c.kind == policy.ChooseTurn {
				cov.turnChoices++
			} else {
				cov.wakeChoices++
			}
		}
	}
	return nil
}

// modelConfigs are the base policies and policy sets the differential
// scripts run under.
var modelConfigs = []Config{
	{Mode: policy.RoundRobin, Policies: policy.NoPolicies},
	{Mode: policy.RoundRobin, Policies: policy.BoostBlocked},
	{Mode: policy.RoundRobin, Policies: policy.AllPolicies},
	{Mode: policy.LogicalClock},
	{Mode: policy.VirtualClock},
}

// answersOf is a chooser's answer sequence drawn from seed: one to eight
// answers in -1..6, so some pick a candidate, some keep the default, and
// some are out of range.
func answersOf(seed uint64) []int {
	seq := make([]int, seed%8+1)
	for i := range seq {
		seed = seed*6364136223846793005 + 1442695040888963407
		seq[i] = int(seed>>61) - 1
	}
	return seq
}

// TestQuickModelDifferential runs 1,000 random scripts in lockstep with the
// model: 50 under each configuration — the five of modelConfigs, each with
// the lease on and off and with and without a chooser — and then checks that
// the scripts reached every path the comparison is there for.
func TestQuickModelDifferential(t *testing.T) {
	var cov coverage
	for _, base := range modelConfigs {
		for _, noLease := range []bool{false, true} {
			for _, chooser := range []bool{false, true} {
				cfg := base
				cfg.NoLease = noLease
				name := fmt.Sprintf("%v/%v/nolease=%v/chooser=%v", cfg.Mode, cfg.Policies, noLease, chooser)
				f := func(sc script, answerSeed uint64) bool {
					var seq []int
					if chooser {
						seq = answersOf(answerSeed)
					}
					if err := runLockstep(sc.program(), cfg, seq, &cov); err != nil {
						t.Logf("%s: %+v, answers %v:\n%v", name, sc, seq, err)
						return false
					}
					return true
				}
				if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
	}
	t.Logf("%+v", cov)
	if cov.scripts < 1000 {
		t.Errorf("%d scripts, want at least 1,000", cov.scripts)
	}
	for what, n := range map[string]int{
		"idle time jumps": cov.idleJumps, "timeouts": cov.timeouts, "solo lease extensions": cov.leaseExtends,
		"policy leases": cov.policyKeeps, "turn choices": cov.turnChoices, "wake choices": cov.wakeChoices,
		"destroys with waiters": cov.destroyBusy, "destroys without": cov.destroyIdle,
		"compute ops": cov.computes, "rejoins after another thread ran": cov.overlapped,
	} {
		if n == 0 {
			t.Errorf("no script exercised %s", what)
		}
	}
}
