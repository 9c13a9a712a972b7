package core

import "fmt"

// Intrusive scheduler queues. The run queue, the wake-up queue and each
// per-object wait list chain threads through the one pair of links embedded
// in Thread, so membership changes are O(1) pointer surgery instead of the
// O(n) slice scan-and-shift of the original implementation. FIFO order —
// which the deterministic schedule depends on — is preserved exactly:
// pushBack appends, unlink keeps the relative order of the remaining
// elements.
//
// Timed waiters are additionally indexed by a binary min-heap (dheap) keyed
// by (deadline, seq), so the per-turn expiry check is an O(1) peek and the
// idle-time jump reads the earliest deadline off the heap top instead of
// scanning every blocked thread.

// tqueue is an intrusive FIFO queue of threads: the run queue, the wake-up
// queue, or one object's wait list. A thread is in at most one tqueue at a
// time (Thread.queue says which kind), so a single pair of links per thread
// suffices.
type tqueue struct {
	head, tail *Thread
	n          int // length
}

// pushBack appends t to the tail of the queue.
func (q *tqueue) pushBack(t *Thread) {
	t.qprev, t.qnext = q.tail, nil
	if q.tail != nil {
		q.tail.qnext = t
	} else {
		q.head = t
	}
	q.tail = t
	q.n++
}

// remove unlinks t from the queue in O(1). t must be in this queue.
func (q *tqueue) remove(t *Thread) {
	if t.qprev == nil && t.qnext == nil && q.head != t {
		panic(fmt.Sprintf("core: thread %v missing from %v queue", t, t.queue))
	}
	if t.qprev != nil {
		t.qprev.qnext = t.qnext
	} else {
		q.head = t.qnext
	}
	if t.qnext != nil {
		t.qnext.qprev = t.qprev
	} else {
		q.tail = t.qprev
	}
	t.qprev, t.qnext = nil, nil
	q.n--
}

// dheap is a binary min-heap of timed waiters ordered by (deadline, seq).
// The seq tie-break makes same-deadline waiters expire in their global FIFO
// registration order, exactly the order the old full-queue expiry scan
// produced, so the deterministic schedule is unchanged. Each waiter caches
// its heap index so Signal/Broadcast can delist a timed waiter in O(log n).
type dheap struct {
	ws []*Thread
}

func (h *dheap) len() int { return len(h.ws) }

// top returns the waiter with the earliest (deadline, seq). The heap must be
// non-empty.
func (h *dheap) top() *Thread { return h.ws[0] }

func (h *dheap) less(i, j int) bool {
	a, b := h.ws[i], h.ws[j]
	return a.deadline < b.deadline || (a.deadline == b.deadline && a.seq < b.seq)
}

func (h *dheap) swap(i, j int) {
	h.ws[i], h.ws[j] = h.ws[j], h.ws[i]
	h.ws[i].heapIdx = i
	h.ws[j].heapIdx = j
}

// push adds w to the heap in O(log n).
func (h *dheap) push(w *Thread) {
	w.heapIdx = len(h.ws)
	h.ws = append(h.ws, w)
	h.up(w.heapIdx)
}

// remove deletes w from the heap in O(log n) via its cached index and marks
// it untimed (heapIdx = -1).
func (h *dheap) remove(w *Thread) {
	i := w.heapIdx
	last := len(h.ws) - 1
	h.swap(i, last)
	h.ws[last] = nil
	h.ws = h.ws[:last]
	w.heapIdx = -1
	if i < last {
		h.down(i)
		h.up(i)
	}
}

func (h *dheap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

func (h *dheap) down(i int) {
	n := len(h.ws)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.less(l, m) {
			m = l
		}
		if r < n && h.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h.swap(i, m)
		i = m
	}
}
