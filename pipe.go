package qithread

import (
	"fmt"
	"sync"

	"qithread/internal/core"
	"qithread/internal/domain"
)

// Pipe is a deterministic, bounded, in-order message channel between
// threads. It is the counterpart of Parrot's network wrappers: where Parrot
// interposes on socket operations so inter-process byte streams are
// scheduled deterministically, this reproduction models connections as
// in-process message pipes whose Send and Recv are ordinary synchronization
// operations under the turn. A Pipe composes the runtime's Mutex and Cond
// wrappers, so every policy (BoostBlocked, WakeAMAP, ...) applies to pipe
// traffic exactly as it does to hand-written queues.
type Pipe struct {
	rt       *Runtime
	name     string
	m        *Mutex
	notEmpty *Cond
	notFull  *Cond
	capacity int

	// buf and closed are guarded by m.
	buf    []any
	closed bool
}

// NewPipe creates a pipe with the given capacity (at least 1).
func (rt *Runtime) NewPipe(t *Thread, name string, capacity int) *Pipe {
	if capacity < 1 {
		capacity = 1
	}
	return &Pipe{
		rt:       rt,
		name:     name,
		m:        rt.NewMutex(t, name+".m"),
		notEmpty: rt.NewCond(t, name+".ne"),
		notFull:  rt.NewCond(t, name+".nf"),
		capacity: capacity,
	}
}

// Send enqueues v, blocking while the pipe is full. It reports false once
// the pipe is closed — whether it was closed before the call or concurrently,
// while the sender was still blocked waiting for space. In both cases the
// message is dropped: a false return guarantees no receiver ever observes v,
// and a true return guarantees v was enqueued, mirroring the closed-socket
// write semantics this type models. (Like the rest of the pipe, the outcome
// is deterministic: whether a given Send beats a given Close is fixed by the
// schedule, not by real-time racing.)
func (p *Pipe) Send(t *Thread, v any) bool {
	p.m.Lock(t)
	for len(p.buf) >= p.capacity && !p.closed {
		p.notFull.Wait(t, p.m)
	}
	if p.closed {
		p.m.Unlock(t)
		return false
	}
	p.buf = append(p.buf, v)
	p.m.Unlock(t)
	p.notEmpty.Signal(t)
	return true
}

// Recv dequeues the next message, blocking while the pipe is empty. It
// reports false once the pipe is closed and drained.
func (p *Pipe) Recv(t *Thread) (any, bool) {
	p.m.Lock(t)
	for len(p.buf) == 0 && !p.closed {
		p.notEmpty.Wait(t, p.m)
	}
	if len(p.buf) == 0 {
		p.m.Unlock(t)
		return nil, false
	}
	v := p.buf[0]
	p.buf = p.buf[1:]
	p.m.Unlock(t)
	p.notFull.Signal(t)
	return v, true
}

// Close marks the pipe closed and wakes all blocked senders and receivers.
// Queued messages remain receivable; further sends fail.
func (p *Pipe) Close(t *Thread) {
	p.m.Lock(t)
	p.closed = true
	p.m.Unlock(t)
	p.notEmpty.Broadcast(t)
	p.notFull.Broadcast(t)
}

// XPipe is the sequenced cross-domain pipe: the only legal way for threads
// of different scheduler domains to communicate. Where a Pipe composes
// in-domain Mutex and Cond wrappers, an XPipe is a scheduler boundary: a
// send or receive executes under the calling thread's own domain turn and
// HOLDS that turn while it blocks in real time for the peer domain, so the
// operation occupies exactly one deterministic slot in its domain's schedule
// no matter how the two domains' real speeds interleave. Each completed
// delivery is stamped with the sender's and receiver's domain-local schedule
// positions; the stamps form the runtime's delivery log (DeliveryLog), the
// canonical record of cross-domain causality that, together with the
// per-domain schedules, fingerprints a partitioned execution.
//
// Because a blocked boundary operation stalls its whole domain, XPipes are
// rendezvous points, not free-running queues: place them off the hot paths
// (work distribution, result collection). Cross-domain deadlock — two
// domains blocked on each other's pipes — is possible exactly as in a Kahn
// process network; it is deterministic (every run hangs identically) but not
// detected by the per-domain deadlock checkers, which see a turn-holding
// thread as running.
//
// In Nondet mode an XPipe degrades to a plain buffered channel, so
// partitioned workloads run unchanged under the nondeterministic baseline.
type XPipe struct {
	rt       *Runtime
	name     string
	from, to *Domain
	ch       *domain.Channel // nil in Nondet mode

	// Nondet fallback state.
	nmu      sync.Mutex
	ncv      *sync.Cond
	nbuf     []any
	nclosed  bool
	capacity int
}

// NewXPipe creates a sequenced pipe from one scheduler domain to another
// (they must differ — within a domain use NewPipe, which the turn already
// orders). Any sender-domain thread may send, any receiver-domain thread may
// receive, and only sender-domain threads may close. XPipes must be created
// deterministically (by setup code or the main thread): creation order
// assigns the pipe id that orders the delivery log.
func (rt *Runtime) NewXPipe(name string, from, to *Domain, capacity int) *XPipe {
	if from == nil || to == nil {
		panic("qithread: XPipe endpoints must be non-nil")
	}
	if from == to {
		panic(fmt.Sprintf("qithread: XPipe %q has both endpoints in %s; use NewPipe within a domain", name, from.label()))
	}
	if from.rt != rt || to.rt != rt {
		panic(fmt.Sprintf("qithread: XPipe %q from %s to %s has an endpoint in another runtime", name, from.label(), to.label()))
	}
	if capacity < 1 {
		capacity = 1
	}
	p := &XPipe{rt: rt, name: name, from: from, to: to, capacity: capacity}
	if rt.det() {
		p.ch = rt.group.NewChannel(name, &from.rec, &to.rec, capacity)
	} else {
		p.ncv = sync.NewCond(&p.nmu)
	}
	return p
}

// From returns the sender domain.
func (p *XPipe) From() *Domain { return p.from }

// To returns the receiver domain.
func (p *XPipe) To() *Domain { return p.to }

// Send enqueues v, blocking while the pipe is full: SendAll of one message.
// It reports false if the pipe was closed (the message is then dropped). The
// caller must belong to the sender domain.
func (p *XPipe) Send(t *Thread, v any) bool {
	vs := [1]any{v}
	return p.SendAll(t, vs[:]) == 1
}

// Recv dequeues the next message, blocking while the pipe is empty and open:
// RecvUpTo of one message. It reports false once the pipe is closed and
// drained. The receiver's virtual clock is raised to the sender's send-time
// clock (the cross-domain happens-before edge). The caller must belong to the
// receiver domain.
func (p *XPipe) Recv(t *Thread) (any, bool) {
	var dst [1]any
	_, ok := p.RecvUpTo(t, dst[:])
	return dst[0], ok
}

// SendAll sends every message of vs in order, moving up to the pipe's
// capacity per turn-holding boundary slot: each batch costs one schedule
// slot, one channel lock acquisition, and one receiver wake-up, instead of
// one of each per message. When len(vs) <= capacity — the intended shape:
// size the pipe for the program's natural transfer unit — the whole call is
// a single boundary slot. Batch sizes are deterministic (always
// min(remaining, capacity), never dependent on the receiver's real-time
// progress), and the per-batch stamps expand into per-message Delivery
// entries identical to the same messages sent one Send at a time under a
// retained turn. It returns the number of messages sent: len(vs), or fewer
// if the pipe was closed (the rest are dropped). An empty vs sends nothing
// and occupies no schedule slot. The caller must belong to the sender
// domain.
func (p *XPipe) SendAll(t *Thread, vs []any) int {
	if len(vs) == 0 {
		return 0
	}
	s := p.from.enter(t, "xpipe sender end", p.name)
	if !p.rt.det() {
		sent := 0
		p.nmu.Lock()
		for sent < len(vs) {
			for len(p.nbuf) >= p.capacity && !p.nclosed {
				p.ncv.Wait()
			}
			if p.nclosed {
				break
			}
			for len(p.nbuf) < p.capacity && sent < len(vs) {
				p.nbuf = append(p.nbuf, vs[sent])
				sent++
			}
			p.ncv.Broadcast()
		}
		p.nmu.Unlock()
		return sent
	}
	sent := 0
	for sent < len(vs) {
		s.GetTurn(t.ct)
		n := p.ch.SendBatch(t.ct, vs[sent:])
		s.TraceOp(t.ct, core.OpXPipeSend, p.ch.ID(), core.StatusOK)
		t.release()
		if n == 0 {
			break // closed: the remaining messages are dropped
		}
		sent += n
	}
	return sent
}

// RecvUpTo receives up to min(len(dst), capacity) messages into dst in one
// turn-holding boundary slot: one schedule slot, one channel lock
// acquisition, one sender wake-up. It blocks until that many messages are
// queued or the pipe is closed; once closed the remainder is fixed by the
// sender domain's schedule, so the count returned is deterministic either
// way. The receiver's virtual clock is raised to the latest send-time clock
// among the delivered messages. It reports ok=false only once the pipe is
// closed and drained; n is the number of messages stored into dst. An empty
// dst receives nothing and occupies no schedule slot. The caller must
// belong to the receiver domain.
func (p *XPipe) RecvUpTo(t *Thread, dst []any) (n int, ok bool) {
	if len(dst) == 0 {
		return 0, true
	}
	s := p.to.enter(t, "xpipe receiver end", p.name)
	if !p.rt.det() {
		want := len(dst)
		if want > p.capacity {
			want = p.capacity
		}
		p.nmu.Lock()
		for len(p.nbuf) < want && !p.nclosed {
			p.ncv.Wait()
		}
		n = len(p.nbuf)
		if n > want {
			n = want
		}
		if n == 0 {
			p.nmu.Unlock()
			return 0, false
		}
		copy(dst, p.nbuf[:n])
		p.nbuf = p.nbuf[n:]
		p.ncv.Broadcast()
		p.nmu.Unlock()
		return n, true
	}
	s.GetTurn(t.ct)
	n, ok = p.ch.RecvBatch(t.ct, dst)
	s.TraceOp(t.ct, core.OpXPipeRecv, p.ch.ID(), core.StatusOK)
	t.release()
	return n, ok
}

// Close marks the pipe closed and wakes blocked peers. Queued messages
// remain receivable; further sends fail. Only sender-domain threads may
// close — the sender domain's schedule then totally orders every send
// against the close, keeping Send's result deterministic (receivers signal
// shutdown through a reverse XPipe).
func (p *XPipe) Close(t *Thread) {
	s := p.from.enter(t, "xpipe sender end", p.name)
	if !p.rt.det() {
		p.nmu.Lock()
		p.nclosed = true
		p.ncv.Broadcast()
		p.nmu.Unlock()
		return
	}
	s.GetTurn(t.ct)
	p.ch.Close(t.ct)
	s.TraceOp(t.ct, core.OpXPipeClose, p.ch.ID(), core.StatusOK)
	t.release()
}
