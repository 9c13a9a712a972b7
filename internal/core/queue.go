package core

import "fmt"

// Intrusive scheduler queues. The run queue, the wake-up queue and each
// per-object wait list chain threads through the one pair of links embedded
// in Thread, so membership changes are O(1) pointer surgery instead of the
// O(n) slice scan-and-shift of the original implementation. FIFO order —
// which the deterministic schedule depends on — is preserved exactly:
// pushBack appends, unlink keeps the relative order of the remaining
// elements.

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
