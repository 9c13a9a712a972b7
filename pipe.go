package qithread

import (
	"fmt"
	"strings"
	"sync"

	"qithread/internal/core"
	"qithread/internal/logio"
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
// positions, and the stamps are folded into the pipe's delivery hash, the
// canonical record of cross-domain causality that, together with the
// per-domain schedules, fingerprints a partitioned execution
// (Fingerprint.Deliveries).
//
// Because a blocked boundary operation stalls its whole domain, XPipes are
// rendezvous points, not free-running queues: place them off the hot paths
// (work distribution, result collection). Cross-domain deadlock — two
// domains blocked on each other's pipes — is possible exactly as in a Kahn
// process network, and as deterministic. The per-domain deadlock checkers
// see a turn-holding thread as running, so the runtime detects it instead:
// once every live domain waits in an XPipe, it reports the cycle, or the
// chain ending at a domain that finished without serving its pipe (see
// parkLocked). Nondet pipes are not checked.
//
// The buffer is a ring of capacity slots allocated once, so the steady-state
// message path allocates nothing. In Nondet mode an XPipe is the same ring
// without the turn: its operations take no schedule slot, record no stamps
// and join no fingerprint, so partitioned workloads run unchanged under the
// nondeterministic baseline.
type XPipe struct {
	rt       *Runtime
	id       uint64 // creation order among the runtime's XPipes, from 1: seeds every stamp, and is the trace object id of the pipe's operations
	name     string
	from, to *Domain

	// mu guards the rest. It is a real mutex outside any turn: it orders the
	// two domains' physical accesses, while each side's logical order comes
	// from its own turn. A deterministic side waits holding its turn, so at
	// most one sender and one receiver park; a Nondet side has no turn, so
	// any number may, and a wake-up wakes every parked waiter of its side.
	mu       sync.Mutex
	canSend  sync.Cond // senders park here while the ring is full
	canRecv  sync.Cond // receivers park here while the ring is short of their batch
	sendW    int       // parked senders
	recvW    int       // parked receivers
	recvWant int       // fewest queued messages a parked receiver waits for, 0 after a wake-up (wakeRecv)

	// The deterministic thread parked on each side, if any, for the
	// cross-domain deadlock detector: set by the thread as it parks, cleared
	// by the peer operation that wakes it, under rt.domMu as well.
	sendT, recvT *core.Thread

	ring   []message // capacity slots
	head   int       // index of the oldest queued message
	n      int       // queued messages
	closed bool

	sendSeq   uint64 // messages ever enqueued
	delivered uint64 // messages ever delivered
	hash      uint64 // running FNV-64a over the delivery stamps (see recvBatch)
}

// message is one queued value with its sender-side stamps.
type message struct {
	v        any
	seq      uint64 // message sequence within the pipe, from 1
	vtime    int64  // sender's virtual clock at the send
	sendTurn int64  // sender domain's turn count at the send
	sendXSeq int64  // sender domain's boundary sequence at the send
}

// NewXPipe creates a sequenced pipe from one scheduler domain to another
// (they must differ — within a domain use NewPipe, which the turn already
// orders). Any sender-domain thread may send, any receiver-domain thread may
// receive, and only sender-domain threads may close. XPipes must be created
// deterministically (by setup code or the main thread): creation order
// assigns the pipe id that seeds every delivery stamp and orders the pipes in
// the fingerprint.
func (rt *Runtime) NewXPipe(name string, from, to *Domain, capacity int) *XPipe {
	if from == nil || to == nil {
		panic("qithread: XPipe endpoints must be non-nil")
	}
	if from == to {
		panic(fmt.Sprintf("qithread: XPipe %q has both endpoints in %s; use NewPipe within a domain", name, from))
	}
	if from.rt != rt || to.rt != rt {
		panic(fmt.Sprintf("qithread: XPipe %q from %s to %s has an endpoint in another runtime", name, from, to))
	}
	p := &XPipe{rt: rt, name: name, from: from, to: to, ring: make([]message, max(capacity, 1)), hash: logio.FNVOffset64}
	p.canSend.L = &p.mu
	p.canRecv.L = &p.mu
	rt.domMu.Lock()
	defer rt.domMu.Unlock()
	rt.xpipes = append(rt.xpipes, p)
	p.id = uint64(len(rt.xpipes))
	return p
}

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
// slot, one channel lock acquisition, and at most one receiver wake-up,
// instead of one of each per message. When len(vs) <= capacity — the
// intended shape: size the pipe for the program's natural transfer unit —
// the whole call is a single boundary slot. Batch sizes are deterministic
// (always min(remaining, capacity), never dependent on the receiver's
// real-time progress), and the per-batch stamps expand into per-message
// deliveries that hash identically to the same messages sent one Send at a
// time under a retained turn. It returns the number of messages sent:
// len(vs), or fewer if the pipe was closed (the rest are dropped). An empty
// vs sends nothing and occupies no schedule slot. The caller must belong to
// the sender domain.
func (p *XPipe) SendAll(t *Thread, vs []any) int {
	s := p.from.enter(t, "xpipe sender end", p.name)
	sent := 0
	for sent < len(vs) {
		var turn, vtime int64
		if s != nil {
			s.GetTurn(t.ct())
			turn, vtime = s.TurnCount(), t.ct().VTime()
		}
		n := p.sendBatch(t.ct(), vs[sent:], turn, vtime)
		if s != nil {
			s.TraceOp(t.ct(), core.OpXPipeSend, p.id, core.StatusOK)
			t.release()
		}
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
	s := p.to.enter(t, "xpipe receiver end", p.name)
	if len(dst) == 0 {
		return 0, true
	}
	var turn, vmax int64
	if s != nil {
		s.GetTurn(t.ct())
		turn = s.TurnCount()
	}
	n, vmax = p.recvBatch(t.ct(), dst, turn)
	if s != nil {
		t.ct().MeetVTime(vmax)
		s.TraceOp(t.ct(), core.OpXPipeRecv, p.id, core.StatusOK)
		t.release()
	}
	return n, n > 0
}

// Close marks the pipe closed and wakes blocked peers. Queued messages
// remain receivable; further sends fail. Only sender-domain threads may
// close — the sender domain's schedule then totally orders every send
// against the close, keeping Send's result deterministic (receivers signal
// shutdown through a reverse XPipe).
func (p *XPipe) Close(t *Thread) {
	s := p.from.enter(t, "xpipe sender end", p.name)
	if s != nil {
		s.GetTurn(t.ct())
		p.from.xseq++
	}
	p.close()
	if s != nil {
		s.TraceOp(t.ct(), core.OpXPipeClose, p.id, core.StatusOK)
		t.release()
	}
}

// close marks the ring closed and wakes every parked sender and receiver.
func (p *XPipe) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.wake(&p.canSend, p.sendW, &p.sendT)
	p.wakeRecv()
}

// wakeRecv wakes the parked receivers once the ring holds the smallest batch
// any of them waits for, or the pipe is closed; a send that leaves every
// parked receiver short wakes none, and a deterministic one stays recorded
// as parked. Each parker lowers recvWant to its batch and each wake-up
// resets it, so the receivers that wake and are still short set it again as
// they park. The caller holds p.mu.
func (p *XPipe) wakeRecv() {
	if p.n >= p.recvWant || p.closed {
		p.recvWant = 0
		p.wake(&p.canRecv, p.recvW, &p.recvT)
	}
}

// wake wakes every waiter parked on c, if there are any, and clears the
// side's parked deterministic thread (slot): from here on it is running. The
// caller holds p.mu.
func (p *XPipe) wake(c *sync.Cond, parked int, slot **core.Thread) {
	if parked > 0 {
		c.Broadcast()
		if *slot != nil {
			p.rt.domMu.Lock()
			*slot = nil
			p.rt.xparked--
			p.rt.domMu.Unlock()
		}
	}
}

// wait parks the caller on c, one of the pipe's sides, until a peer operation
// wakes it. A deterministic thread (ct, nil for a Nondet one) waits holding
// its domain's turn, and with it the domain's one goroutine, so it is first
// recorded in the side's slot. If that leaves every live domain of the
// runtime waiting in an XPipe (parkLocked), wait takes the record back,
// reports the deadlock with p.mu released (core.Scheduler.ReportDeadlock) and
// returns, for the caller to look at the pipe again: the next wait parks for
// good. The caller holds p.mu.
func (p *XPipe) wait(ct *core.Thread, c *sync.Cond, parked *int, slot **core.Thread) {
	if ct != nil {
		rt := p.rt
		rt.domMu.Lock()
		*slot = ct
		rt.xparked++
		msg := rt.parkLocked()
		if msg != "" {
			*slot = nil
			rt.xparked--
		}
		rt.domMu.Unlock()
		if msg != "" {
			p.mu.Unlock()
			defer p.mu.Lock()
			rt.main.sched.ReportDeadlock(msg)
			return
		}
	}
	*parked++
	c.Wait()
	*parked--
}

// Cross-domain deadlock. A domain is live from its Launch (the default
// domain from New) until its driver has drained it, and parked while one of
// its threads waits in a deterministic XPipe operation: its one goroutine
// waits there, and only a peer operation on that pipe, which clears the
// parked slot as it wakes it, can end the wait. A domain waiting anywhere
// else — an ingress source in Gateway.Admit, a helper's computation — is not
// parked. So once every live domain is parked, none will run again. The
// lock order is p.mu, then rt.domMu, which guards the live and parked counts,
// every pipe's slots and Domain.drained; no pipe's mu is taken under
// domMu.

// parkLocked is the detector, run whenever a domain parks or finishes: if
// that left every live domain parked, and the deadlock has not been reported
// yet, it returns the report, and otherwise "". The report is a function of
// where the domains wait, which by the Kahn argument does not depend on
// which of them parked last: every parked domain in id order with its
// thread, side and pipe, then from each in turn the walk along wait-for
// edges (domain, pipe, peer domain) until it closes a cycle, reaches a
// domain that is not live, or joins an earlier walk. The caller holds domMu.
func (rt *Runtime) parkLocked() string {
	if rt.xlive == 0 || rt.xparked != rt.xlive || rt.xreported {
		return ""
	}
	rt.xreported = true
	waits := make([]xwait, len(rt.domains))
	for _, p := range rt.xpipes {
		if p.sendT != nil {
			waits[p.from.id] = xwait{p, p.sendT, true}
		}
		if p.recvT != nil {
			waits[p.to.id] = xwait{p, p.recvT, false}
		}
	}
	var b strings.Builder
	b.WriteString("qithread: cross-domain deadlock: every live domain waits in an XPipe\n")
	for id, w := range waits {
		if w.p != nil {
			fmt.Fprintf(&b, "  %v: %v\n", rt.domains[id], w)
		}
	}
	walk := make([]int, len(waits)) // the walk that visited a domain, from 1
	for start := range waits {
		if waits[start].p == nil || walk[start] != 0 {
			continue
		}
		d, last := rt.domains[start], xwait{}
		path := d.String()
		for walk[d.id] == 0 && waits[d.id].p != nil {
			walk[d.id] = start + 1
			last = waits[d.id]
			d = last.peer()
			path += " -> " + d.String()
		}
		switch {
		case waits[d.id].p == nil && !d.drained:
			fmt.Fprintf(&b, "  chain: %s, which was never launched\n", path)
		case waits[d.id].p == nil && last.send:
			fmt.Fprintf(&b, "  chain: %s, which finished without draining xpipe %q\n", path, last.p.name)
		case waits[d.id].p == nil:
			fmt.Fprintf(&b, "  chain: %s, which finished without closing xpipe %q\n", path, last.p.name)
		case walk[d.id] == start+1:
			fmt.Fprintf(&b, "  cycle: %s\n", path)
		default:
			fmt.Fprintf(&b, "  chain: %s, which waits as above\n", path)
		}
	}
	return b.String()
}

// xwait is where a parked domain waits: the pipe, its thread there and the
// side.
type xwait struct {
	p    *XPipe
	t    *core.Thread
	send bool
}

// peer is the domain whose operation on the pipe would end the wait.
func (w xwait) peer() *Domain {
	if w.send {
		return w.p.to
	}
	return w.p.from
}

func (w xwait) String() string {
	if w.send {
		return fmt.Sprintf("%v sends on xpipe %q (#%d) to %v", w.t, w.p.name, w.p.id, w.p.to)
	}
	return fmt.Sprintf("%v receives on xpipe %q (#%d) from %v", w.t, w.p.name, w.p.id, w.p.from)
}

// sendBatch enqueues min(len(vs), capacity) messages as one boundary slot,
// stamped with the sender's turn count and virtual clock, and in a
// deterministic mode each with the next boundary sequence of the sender
// domain. It waits whenever the ring is full, at the start or mid-batch, and
// stops at a close; it returns the number enqueued, fewer than the batch
// only if the pipe was closed. A deterministic sender holds its domain's
// turn throughout, so no close lands mid-batch and the batch size never
// depends on the receiver's progress.
func (p *XPipe) sendBatch(ct *core.Thread, vs []any, turn, vtime int64) int {
	k := min(len(vs), len(p.ring))
	stamp := p.rt.det()
	p.mu.Lock()
	defer p.mu.Unlock()
	sent := 0
	for sent < k {
		for p.n == len(p.ring) && !p.closed {
			p.wait(ct, &p.canSend, &p.sendW, &p.sendT)
		}
		if p.closed {
			break
		}
		for ; p.n < len(p.ring) && sent < k; sent++ {
			var xseq int64
			if stamp {
				p.from.xseq++
				xseq = p.from.xseq
			}
			p.sendSeq++
			p.ring[(p.head+p.n)%len(p.ring)] = message{v: vs[sent], seq: p.sendSeq, vtime: vtime, sendTurn: turn, sendXSeq: xseq}
			p.n++
		}
		p.wakeRecv()
	}
	return sent
}

// recvBatch dequeues up to min(len(dst), capacity) messages into dst as one
// boundary slot, in a deterministic mode stamping each delivery with the
// receiver domain's turn count and next boundary sequence. It waits until
// that many are queued or the pipe is closed; once closed, the remainder is
// fixed by the sender's schedule. It returns the count, 0 only on a closed,
// drained pipe, and the latest send-time virtual clock among the messages.
//
// A stamped delivery is folded into the pipe's running hash as it happens —
// pipe id, message sequence, sender and receiver domain, send turn and xseq,
// receive turn and xseq — so fingerprinting needs no log.
func (p *XPipe) recvBatch(ct *core.Thread, dst []any, turn int64) (n int, vmax int64) {
	want := min(len(dst), len(p.ring))
	stamp := p.rt.det()
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.n < want && !p.closed {
		if p.recvWant == 0 || want < p.recvWant {
			p.recvWant = want
		}
		p.wait(ct, &p.canRecv, &p.recvW, &p.recvT)
	}
	n = min(p.n, want)
	for i := range dst[:n] {
		m := &p.ring[p.head]
		dst[i] = m.v
		m.v = nil // the slot must not keep the value alive
		p.head = (p.head + 1) % len(p.ring)
		if !stamp {
			continue
		}
		p.to.xseq++
		p.delivered++
		vmax = max(vmax, m.vtime)
		h := p.hash
		for _, w := range [...]uint64{p.id, m.seq, uint64(p.from.id), uint64(p.to.id),
			uint64(m.sendTurn), uint64(m.sendXSeq), uint64(turn), uint64(p.to.xseq)} {
			h = logio.FNVFold64(h, w)
		}
		p.hash = h
	}
	p.n -= n
	if n > 0 {
		p.wake(&p.canSend, p.sendW, &p.sendT)
	}
	return n, vmax
}
