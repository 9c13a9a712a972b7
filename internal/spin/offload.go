package spin

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Offloaded work. A deterministic scheduler domain runs all its threads on
// one goroutine, so a thread's compute would otherwise keep the domain's other
// threads — and every other P — waiting. Work is pure, so where it runs
// cannot change what it returns: a thread that declares enough of it hands
// the call to a helper goroutine (Offload), lets its domain run other threads,
// and collects the result when its driver rejoins it (Job.Join, Job.Collect).
//
// The helpers are a process-wide pool of at most GOMAXPROCS-1 goroutines,
// started on demand, so a process at GOMAXPROCS=1 has none and every job is
// run by its owner at Join. A helper that finds the queue empty polls it for
// helperSpin before it parks: a parked helper is readied into the waker's P
// and waits there until an idle P wakes, 50–190 µs on a two-vCPU host, longer
// than the jobs it would take (EXPERIMENTS.md E44). The poll is the pool's
// CPU cost: at most helperSpin per helper after the last job of a burst.

// helperSpin is how long an idle helper polls the queue before it parks.
const helperSpin = 50 * time.Microsecond

// freeJobsCap bounds the recycled job records: one per thread that can be
// computing at once, across the process's domains.
const freeJobsCap = 256

// A Job is one offloaded Work computation: Chain(seed, n, chunk), run once,
// by a helper or by its owner at Join, whichever takes it first.
type Job struct {
	seed     uint64
	n, chunk int64
	v        uint64
	state    atomic.Uint32
}

// A job's states. Only a successful compare-and-swap from jobQueued runs it,
// so a queue entry whose job its owner already took is skipped, and one whose
// record was recycled since runs the record's current job, once.
const (
	jobQueued uint32 = iota
	jobTaken
	jobDone
)

// helperPool is the queue of offloaded jobs and the helpers that take them.
type helperPool struct {
	mu     sync.Mutex
	wake   sync.Cond // parked helpers wait here, on mu
	queue  []*Job    // queue[head:] are offloaded jobs no helper took yet
	head   int
	queued atomic.Int32 // len(queue)-head, which a polling helper reads without mu
	free   []*Job

	helpers int // running helper goroutines
	idle    int // of them, not running a job: polling or parked
	parked  int // of them, parked on wake and not yet signaled
}

var pool helperPool

func init() { pool.wake.L = &pool.mu }

// Chain is Work in chunks of at most chunk units, each seeded with the
// previous chunk's result: the kernel of a computation whose caller accounts
// for it chunk by chunk.
func Chain(seed uint64, n, chunk int64) uint64 {
	for ; n > 0; n -= chunk {
		seed = Work(seed, min(n, chunk))
	}
	return seed
}

// Offload queues Chain(seed, n, chunk) for a helper and returns its job, which
// the caller must Join and then Collect. It starts a helper when none is idle
// and fewer than GOMAXPROCS-1 run, and wakes a parked one when none polls; at
// GOMAXPROCS=1 nothing is queued and the owner runs the job at Join.
func Offload(seed uint64, n, chunk int64) *Job {
	helpers := runtime.GOMAXPROCS(0) - 1
	p := &pool
	p.mu.Lock()
	var j *Job
	if k := len(p.free); k > 0 {
		j = p.free[k-1]
		p.free = p.free[:k-1]
	} else {
		j = new(Job)
	}
	j.seed, j.n, j.chunk = seed, n, chunk
	j.state.Store(jobQueued)
	if helpers > 0 {
		p.queue = append(p.queue, j)
		p.queued.Add(1)
	}
	switch {
	case p.parked > 0 && p.helpers > helpers:
		// GOMAXPROCS fell since this helper parked: wake it to end.
		p.parked--
		p.wake.Signal()
	case helpers > 0 && p.idle == 0 && p.helpers < helpers:
		p.helpers++
		p.idle++
		go p.help()
	case helpers > 0 && p.idle > 0 && p.idle == p.parked:
		// Nobody polls: wake a parked helper.
		p.parked--
		p.wake.Signal()
	}
	p.mu.Unlock()
	return j
}

// Join returns once the job's result is ready. If no helper has taken the job
// yet, it runs it on the caller. Otherwise a helper is computing it on a P of
// its own, and the caller runs queued jobs — anybody's — while it waits.
func (j *Job) Join() {
	if j.state.CompareAndSwap(jobQueued, jobTaken) {
		j.run()
		return
	}
	for i := 0; j.state.Load() != jobDone; i++ {
		if o := pool.take(); o != nil {
			o.runIfQueued()
			i = 0
		} else if i >= 64 {
			runtime.Gosched()
		}
	}
}

// Collect returns a joined job's result and recycles its record: the job may
// not be used afterwards.
func (j *Job) Collect() uint64 {
	v := j.v
	p := &pool
	p.mu.Lock()
	if len(p.free) < freeJobsCap {
		p.free = append(p.free, j)
	}
	p.mu.Unlock()
	return v
}

func (j *Job) run() {
	j.v = Chain(j.seed, j.n, j.chunk)
	j.state.Store(jobDone)
}

// runIfQueued runs j, taken off the queue, unless its owner took it first.
func (j *Job) runIfQueued() {
	if j.state.CompareAndSwap(jobQueued, jobTaken) {
		j.run()
	}
}

// help is a helper goroutine: take the oldest queued job, run it unless its
// owner took it first, repeat; poll, then park, while the queue is empty; end
// when GOMAXPROCS has fallen below the number of helpers.
func (p *helperPool) help() {
	p.mu.Lock()
	for {
		j := p.takeLocked()
		if j == nil {
			p.mu.Unlock()
			for start := time.Now(); p.queued.Load() == 0 && time.Since(start) < helperSpin; {
			}
			p.mu.Lock()
			if j = p.takeLocked(); j == nil {
				if p.helpers >= runtime.GOMAXPROCS(0) {
					p.helpers--
					p.idle--
					p.mu.Unlock()
					return
				}
				p.parked++
				p.wake.Wait()
				continue
			}
		}
		p.idle--
		p.mu.Unlock()
		j.runIfQueued()
		p.mu.Lock()
		p.idle++
	}
}

// take pops the oldest queued job, or returns nil: without taking mu when
// the queue is empty.
func (p *helperPool) take() *Job {
	if p.queued.Load() == 0 {
		return nil
	}
	p.mu.Lock()
	j := p.takeLocked()
	p.mu.Unlock()
	return j
}

// takeLocked pops the oldest queued job, or returns nil.
func (p *helperPool) takeLocked() *Job {
	if p.head == len(p.queue) {
		return nil
	}
	j := p.queue[p.head]
	p.queue[p.head] = nil
	if p.head++; p.head == len(p.queue) {
		p.queue, p.head = p.queue[:0], 0
	}
	p.queued.Add(-1)
	return j
}
