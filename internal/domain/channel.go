package domain

import (
	"fmt"
	"sync"

	"qithread/internal/core"
	"qithread/internal/logio"
)

// Channel is the sequenced cross-domain FIFO — the only legal way for
// threads of different domains to communicate. A channel has a fixed sender
// domain and a fixed receiver domain; any thread of the sender domain may
// send and any thread of the receiver domain may receive, because each
// domain's turn already serializes its side into a deterministic order.
//
// Boundary semantics: a thread performing a channel operation holds its own
// domain's turn for the whole operation, blocking in REAL time (not logical
// time) while it waits for the peer domain. Holding the turn is what makes
// the partitioned execution deterministic: the operation occupies exactly
// one deterministic slot in its domain's schedule, so whether the peer
// domain is fast or slow can change wall-clock time but never the schedule,
// the values delivered, or any stamp. The price is that a blocked boundary
// operation stalls its whole domain — cross-domain pipes are rendezvous
// points, not free-running queues, and programs should place them off their
// domains' hot paths (e.g. result collection).
//
// The buffer is a fixed ring of capacity message slots, allocated once at
// channel creation: enqueue and dequeue move head/count indices and reuse
// the slots, so the steady-state per-message path performs no allocation
// (the ring is the message pool). Wake-ups are targeted signals on
// per-direction condition variables — a send can only unblock the receiver
// side and a receive can only unblock the sender side, so waking everything
// with a broadcast would just pay O(waiters) for nothing.
//
// Batched transfers (SendBatch/RecvBatch) move up to capacity messages in
// ONE turn-holding boundary slot with one lock acquisition and one wake-up.
// Batch sizes are deterministic by construction: SendBatch always transfers
// min(len(vs), capacity) messages (filling the ring incrementally inside
// its single slot whenever the ring is momentarily full), and RecvBatch
// blocks until min(len(dst), capacity) messages are present or the channel
// is closed — and once closed the remainder is fixed by the sender domain's
// schedule, never by arrival timing. The per-batch stamps (one turn
// reading, one virtual-time reading) expand into per-message Delivery
// entries exactly as if the messages had been moved one at a time under a
// retained turn: consecutive message sequences and boundary sequences, a
// shared turn stamp.
//
// Messages are stamped at send with the sender domain's schedule position
// (send turn, boundary sequence, message sequence) and at receive with the
// receiver's. Each completed delivery is folded into a per-channel running
// FNV-64a hash at receive time, so fingerprinting is O(1) memory in steady
// state; the materialized Delivery log is retained only when the group is
// configured with RetainDeliveryLog (a debug facility for qitrace-style
// inspection and the determinism checker's log diffing).
type Channel struct {
	id       uint64
	name     string
	from, to *Domain
	capacity int
	retain   bool

	// mu guards the ring and stamps. It is a REAL mutex, deliberately outside
	// any turn mechanism: it orders the two domains' physical accesses while
	// each side's logical order comes from its own turn.
	mu      sync.Mutex
	canSend sync.Cond // waited on by a blocked sender (ring full)
	canRecv sync.Cond // waited on by a blocked receiver (ring short of its batch)
	sendW   bool      // a sender is parked on canSend
	recvW   bool      // a receiver is parked on canRecv

	ring   []message // fixed ring of capacity slots
	head   int       // index of the oldest queued message
	n      int       // queued message count
	closed bool

	sendSeq   uint64 // messages ever enqueued (1-based sequence source)
	delivered uint64 // messages ever delivered
	hash      uint64 // running FNV-64a over delivered stamps (see fold)
	log       []Delivery
}

// message is one in-flight value with its sender-side stamps.
type message struct {
	v        any
	seq      uint64 // 1-based message sequence within the channel
	vtime    int64  // sender's virtual clock at the send
	sendTurn int64  // sender domain's turn count at the send
	sendXSeq int64  // sender domain's boundary sequence at the send
}

// Delivery is one completed cross-domain message transfer. Every field is a
// deterministic function of program + configuration, so two runs must
// produce identical logs; the determinism checker compares them directly.
type Delivery struct {
	Channel  string // channel name
	ChanID   uint64 // channel id (creation order within the group)
	Seq      uint64 // message sequence within the channel, 1-based
	From, To int    // sender and receiver domain ids
	SendTurn int64  // sender domain's logical time at the send
	SendXSeq int64  // sender domain's boundary sequence at the send
	RecvTurn int64  // receiver domain's logical time at the receive
	RecvXSeq int64  // receiver domain's boundary sequence at the receive
}

func (d Delivery) String() string {
	return fmt.Sprintf("%s#%d msg %d: d%d(turn %d, x%d) -> d%d(turn %d, x%d)",
		d.Channel, d.ChanID, d.Seq, d.From, d.SendTurn, d.SendXSeq, d.To, d.RecvTurn, d.RecvXSeq)
}

// NewChannel creates a sequenced channel from one domain to another.
// Channel ids are allocated in creation order; like domains, channels must
// be created deterministically. Endpoints must differ: within one domain the
// turn mechanism already orders everything, and a same-domain channel would
// self-deadlock the first time an operation had to wait for the peer.
func (g *Group) NewChannel(name string, from, to *Domain, capacity int) *Channel {
	if from == nil || to == nil {
		panic("domain: channel endpoints must be non-nil")
	}
	if from == to {
		panic(fmt.Sprintf("domain: channel %q has both endpoints in %v; use an in-domain pipe instead", name, from))
	}
	if capacity < 1 {
		capacity = 1
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	c := &Channel{
		id:       uint64(len(g.channels) + 1),
		name:     name,
		from:     from,
		to:       to,
		capacity: capacity,
		retain:   g.RetainDeliveryLog,
		ring:     make([]message, capacity),
		hash:     logio.FNVOffset64,
	}
	c.canSend.L = &c.mu
	c.canRecv.L = &c.mu
	g.channels = append(g.channels, c)
	return c
}

// ID returns the channel's group-wide id. It doubles as the trace object id
// of the channel's boundary operations (a numbering space separate from each
// domain's scheduler objects).
func (c *Channel) ID() uint64 { return c.id }

// Name returns the channel's debugging name.
func (c *Channel) Name() string { return c.name }

// From returns the sender domain.
func (c *Channel) From() *Domain { return c.from }

// To returns the receiver domain.
func (c *Channel) To() *Domain { return c.to }

// requireEndpoint panics deterministically when ct is not registered with
// the scheduler of the required endpoint domain or does not hold its turn.
func (c *Channel) requireEndpoint(ct *core.Thread, d *Domain, op string) {
	if ct.Scheduler() != d.Sched {
		panic(fmt.Sprintf("domain: %s on channel %q by %v, which is not in the %s-endpoint %v",
			op, c.name, ct, opSide(op), d))
	}
	if !d.Sched.HasTurn(ct) {
		panic(fmt.Sprintf("domain: %s on channel %q by %v without holding the turn of %v", op, c.name, ct, d))
	}
}

func opSide(op string) string {
	if op == "RecvBatch" {
		return "receiver"
	}
	return "sender"
}

// enqueueLocked appends one stamped message to the ring tail. The caller
// holds mu and has established n < capacity.
func (c *Channel) enqueueLocked(v any, vtime, sendTurn, sendXSeq int64) {
	tail := c.head + c.n
	if tail >= c.capacity {
		tail -= c.capacity
	}
	c.sendSeq++
	c.ring[tail] = message{v: v, seq: c.sendSeq, vtime: vtime, sendTurn: sendTurn, sendXSeq: sendXSeq}
	c.n++
}

// dequeueLocked removes the oldest message, records its delivery (hash fold
// always, materialized log only under RetainDeliveryLog), and returns it.
// The ring slot's value reference is cleared so the slot is immediately
// reusable without retaining the message. The caller holds mu and has
// established n > 0.
func (c *Channel) dequeueLocked(recvTurn, recvXSeq int64) message {
	m := c.ring[c.head]
	c.ring[c.head].v = nil
	c.head++
	if c.head == c.capacity {
		c.head = 0
	}
	c.n--
	c.delivered++
	h := c.hash
	h = logio.FNVFold64(h, c.id)
	h = logio.FNVFold64(h, m.seq)
	h = logio.FNVFold64(h, uint64(c.from.ID))
	h = logio.FNVFold64(h, uint64(c.to.ID))
	h = logio.FNVFold64(h, uint64(m.sendTurn))
	h = logio.FNVFold64(h, uint64(m.sendXSeq))
	h = logio.FNVFold64(h, uint64(recvTurn))
	h = logio.FNVFold64(h, uint64(recvXSeq))
	c.hash = h
	if c.retain {
		c.log = append(c.log, Delivery{
			Channel:  c.name,
			ChanID:   c.id,
			Seq:      m.seq,
			From:     c.from.ID,
			To:       c.to.ID,
			SendTurn: m.sendTurn,
			SendXSeq: m.sendXSeq,
			RecvTurn: recvTurn,
			RecvXSeq: recvXSeq,
		})
	}
	return m
}

// wakeRecvLocked delivers the one targeted wake-up of a send-side operation:
// only a parked receiver can make progress from new messages.
func (c *Channel) wakeRecvLocked() {
	if c.recvW {
		c.recvW = false
		c.canRecv.Signal()
	}
}

// wakeSendLocked is the receive-side counterpart: only a parked sender can
// make progress from freed slots.
func (c *Channel) wakeSendLocked() {
	if c.sendW {
		c.sendW = false
		c.canSend.Signal()
	}
}

// Send enqueues v, blocking in real time (while holding the sender domain's
// turn) while the channel is full: SendBatch of one message. It reports false
// if the channel was closed, in which case the message is dropped. The caller
// must be a sender-domain thread holding that domain's turn.
func (c *Channel) Send(ct *core.Thread, v any) bool {
	vs := [1]any{v}
	return c.SendBatch(ct, vs[:]) == 1
}

// SendBatch enqueues min(len(vs), capacity) messages in one boundary slot:
// one lock acquisition, one batch stamp reading (turn, virtual time), one
// receiver wake-up per ring fill. The calling thread holds its domain's
// turn throughout, so the batch occupies a single deterministic slot in the
// sender schedule and its messages carry consecutive boundary sequences —
// byte-identical stamps to the same messages sent one at a time under a
// retained turn. The batch size never depends on the receiver's real-time
// progress: when the ring is momentarily full the call blocks (still inside
// its one slot) until the receiver frees space, and always transfers the
// full min(len(vs), capacity) unless the channel is closed. It returns the
// number of messages enqueued: 0 if the channel was closed (all messages
// dropped) or vs is empty. Callers with more than capacity messages issue
// multiple batches.
func (c *Channel) SendBatch(ct *core.Thread, vs []any) int {
	c.requireEndpoint(ct, c.from, "SendBatch")
	k := len(vs)
	if k > c.capacity {
		k = c.capacity
	}
	if k == 0 {
		return 0
	}
	c.mu.Lock()
	for c.n == c.capacity && !c.closed {
		c.sendW = true
		c.canSend.Wait()
	}
	if c.closed {
		c.mu.Unlock()
		return 0
	}
	vtime := ct.VTime()
	sendTurn := c.from.Sched.TurnCount()
	sent := 0
	for sent < k {
		for c.n == c.capacity {
			// The ring filled mid-batch: wait, still holding the boundary
			// slot, until the receiver frees space. Close cannot intervene
			// (only sender-domain threads close, and this thread holds that
			// domain's turn).
			c.sendW = true
			c.canSend.Wait()
		}
		for c.n < c.capacity && sent < k {
			c.from.Xseq++
			c.enqueueLocked(vs[sent], vtime, sendTurn, c.from.Xseq)
			sent++
		}
		c.wakeRecvLocked()
	}
	c.mu.Unlock()
	return sent
}

// Recv dequeues the next message, blocking in real time (while holding the
// receiver domain's turn) while the channel is empty and open: RecvBatch of
// one message. It reports false once the channel is closed and drained. The
// caller must be a receiver-domain thread holding that domain's turn.
func (c *Channel) Recv(ct *core.Thread) (any, bool) {
	var dst [1]any
	_, ok := c.RecvBatch(ct, dst[:])
	return dst[0], ok
}

// RecvBatch dequeues up to min(len(dst), capacity) messages in one boundary
// slot: one lock acquisition, one batch stamp reading, one sender wake-up.
// It blocks until that many messages are queued OR the channel is closed;
// once closed the remainder is a pure function of the sender schedule, so
// the count returned never depends on arrival timing. The receiver's
// virtual clock is raised to the latest send-time clock among the delivered
// messages (the batch's cross-domain happens-before edge). It reports
// ok=false only when the channel is closed and drained; n is the number of
// messages stored into dst.
func (c *Channel) RecvBatch(ct *core.Thread, dst []any) (int, bool) {
	c.requireEndpoint(ct, c.to, "RecvBatch")
	want := len(dst)
	if want > c.capacity {
		want = c.capacity
	}
	if want == 0 {
		return 0, true
	}
	c.mu.Lock()
	for c.n < want && !c.closed {
		c.recvW = true
		c.canRecv.Wait()
	}
	n := c.n
	if n > want {
		n = want
	}
	if n == 0 {
		c.mu.Unlock()
		return 0, false
	}
	recvTurn := c.to.Sched.TurnCount()
	var vmax int64
	for i := 0; i < n; i++ {
		c.to.Xseq++
		m := c.dequeueLocked(recvTurn, c.to.Xseq)
		dst[i] = m.v
		if m.vtime > vmax {
			vmax = m.vtime
		}
	}
	c.wakeSendLocked()
	c.mu.Unlock()
	ct.MeetVTime(vmax)
	return n, true
}

// Close marks the channel closed and wakes any blocked peer. Queued messages
// remain receivable; further sends fail. Only sender-domain threads may
// close: the sender domain's schedule then totally orders every send against
// the close, so whether a given send precedes the close is deterministic.
// (A receiver-side close would race receiver time against sender time and
// make Send's result depend on real timing; receivers signal shutdown
// through a reverse channel instead.)
func (c *Channel) Close(ct *core.Thread) {
	c.requireEndpoint(ct, c.from, "Close")
	c.from.Xseq++
	c.mu.Lock()
	c.closed = true
	// A parked receiver must re-evaluate (it may now return its deterministic
	// closed-remainder); a parked sender cannot exist (closing requires the
	// sender domain's turn, which a blocked sender would be holding), but a
	// targeted signal is free when nobody waits.
	c.wakeRecvLocked()
	c.wakeSendLocked()
	c.mu.Unlock()
}

// deliveries returns a copy of the channel's retained delivery log (nil
// unless the group was configured with RetainDeliveryLog).
func (c *Channel) deliveries() []Delivery {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.log == nil {
		return nil
	}
	out := make([]Delivery, len(c.log))
	copy(out, c.log)
	return out
}

// stamp returns the channel's running delivery hash and delivered count.
func (c *Channel) stamp() (hash uint64, delivered uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hash, c.delivered
}

// DeliveryLog returns the canonical merged cross-domain delivery log of the
// group: all channels' completed deliveries ordered by (channel id, message
// sequence). Each channel's log is recorded in delivery order — ascending
// message sequence — so concatenating the channels in id order yields the
// canonical order directly. Two runs of the same program and configuration
// must produce identical logs. The log is materialized only under
// RetainDeliveryLog (fingerprinting does not need it: deliveries are
// folded into per-channel running hashes as they happen); without the flag
// DeliveryLog returns nil. Call it after the program has finished.
func (g *Group) DeliveryLog() []Delivery {
	var out []Delivery
	for _, c := range g.Channels() {
		out = append(out, c.deliveries()...)
	}
	return out
}
