package explore

import (
	"math"
	"sync"

	"qithread/internal/core"
	"qithread/internal/policy"
)

// decision is one resolved choice point as the explorer keeps it: a
// core.Choice in the width the search needs, 16 bytes to the Choice's 32. A
// run's decision log, every frontier entry's shared prefix and every
// minimization probe are []decision; a []core.Choice is made only where one
// crosses the package's API (Result.Choices, Minimize, the repro files).
type decision struct {
	n, def, index int32
	kind          policy.ChoiceKind
}

// logged packs a consultation's values for the log. Counts and indices come
// from in-memory candidate lists, and the on-disk formats bound them to int32
// already (trace.ParseChoice). One that still does not fit is saturated, not
// wrapped: no logged count exceeds MaxInt32, so a saturated index is out of
// range of every count the log holds, and a forced prefix or a replay takes
// the default there, as for any out-of-range index.
func logged(kind policy.ChoiceKind, n, def, idx int) decision {
	return decision{n: clamp32(n), def: clamp32(def), index: clamp32(idx), kind: kind}
}

func clamp32(v int) int32 {
	return int32(max(min(v, math.MaxInt32), math.MinInt32))
}

// choicesOf spells a decision log out as the API's []core.Choice (nil for an
// empty log).
func choicesOf(log []decision) []core.Choice {
	if len(log) == 0 {
		return nil
	}
	out := make([]core.Choice, len(log))
	for i, d := range log {
		out[i] = core.Choice{Kind: d.kind, N: int(d.n), Def: int(d.def), Index: int(d.index)}
	}
	return out
}

// decisionsOf packs a caller's []core.Choice (logged says what becomes of a
// value past int32).
func decisionsOf(choices []core.Choice) []decision {
	if len(choices) == 0 {
		return nil
	}
	out := make([]decision, len(choices))
	for i, c := range choices {
		out[i] = logged(c.Kind, c.N, c.Def, c.Index)
	}
	return out
}

// alignment is the per-decision context a pathChooser records alongside the
// replayable decisions when a run is traced: the domain-local trace position at
// each decision moment (-1 for an admission choice, which is not thread-ordered)
// and, for turn choices, the candidate thread ids in enumeration order. It
// never leaves the process — it exists to align decisions with trace events
// for happens-before flip pruning (hb.go); the persisted frontier and repro
// formats carry only the decision quad, so results directories stay
// byte-compatible.
type alignment struct {
	at  []choiceMeta
	ids []int // every turn decision's candidate ids, back to back
}

type choiceMeta struct {
	pos    int64
	off, n int32 // candidate ids are ids[off:off+n]; n == 0 when none were recorded
}

// turnIDs returns decision i's candidate thread ids, nil when it recorded
// none (not a turn choice, or the site supplied no ids).
func (a *alignment) turnIDs(i int) []int {
	m := a.at[i]
	if m.n == 0 {
		return nil
	}
	return a.ids[m.off : m.off+m.n]
}

// eventLog is a traced run's schedule, which the default domain streams to it
// (Config.StreamTrace) and which becomes Result.Trace. Its length is the
// trace index the next event will take, and a pathChooser reads it as each
// turn and wake decision's position: an event is appended in TraceOp and a
// turn or wake decision is made inside the grant or the signal, both under
// that domain's scheduler lock, and an explored program runs in that one
// domain (runOnce).
type eventLog []core.Event

// Append implements qithread.TraceSink.
func (l *eventLog) Append(e core.Event) error {
	*l = append(*l, e)
	return nil
}

// pathChooser drives one exploration run: decisions are consumed positionally
// against a forced prefix — take the prefix's index while it lasts, the
// configured policy's default after — and every consultation is recorded, so
// the run's complete decision log is available for branching and for repro
// files. Consultations arrive from scheduler internals and turn-holding
// wrappers; the mutex orders them across goroutines without ever blocking on
// scheduler state (Chooser contract).
type pathChooser struct {
	mu     sync.Mutex
	forced flip
	log    []decision
	trace  *eventLog  // the traced run's schedule, nil when untraced
	align  *alignment // nil: the run records no alignment
}

// Choose implements qithread.Chooser.
func (c *pathChooser) Choose(kind policy.ChoiceKind, ids []int, n, def int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx := def
	if k := len(c.log); k < c.forced.depth() {
		// A perturbed earlier decision can change how many candidates a later
		// point has; out-of-range prefix entries fall back to the default
		// rather than aborting the run (the decision tree self-repairs, and
		// the recorded log always reflects what was actually taken).
		if f := c.forced.index(k); f >= 0 && f < n {
			idx = f
		}
	}
	c.log = append(c.log, logged(kind, n, def, idx))
	if a := c.align; a != nil {
		m := choiceMeta{pos: -1}
		if kind != policy.ChooseAdmit {
			m.pos = int64(len(*c.trace))
		}
		if kind == policy.ChooseTurn {
			// ids is only valid during the call; one arena holds every copy.
			m.off, m.n = int32(len(a.ids)), int32(len(ids))
			a.ids = append(a.ids, ids...)
		}
		a.at = append(a.at, m)
	}
	return idx
}

// Log returns the decisions resolved so far without copying them: the slice
// is capped at its length, so a straggling consultation (a hung run's threads
// are still live) reallocates instead of writing into what the caller holds.
func (c *pathChooser) Log() []decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.log[:len(c.log):len(c.log)]
}

// Alignment returns the alignment recorded so far (empty when the run records
// none), as copy-free as Log: stragglers only ever append past it.
func (c *pathChooser) Alignment() alignment {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.align == nil {
		return alignment{}
	}
	return *c.align
}

// replayChooser re-resolves a recorded decision log during schedule replay.
// Replay runs consume choices PER KIND, not positionally: the schedule's
// events already drive turn order (the scheduler never consults the hook for
// turn grants in replay mode), so only the wake and admission streams are
// served, each in its own recorded order. A positional cursor would misalign
// the moment the first turn entry went unconsumed.
type replayChooser struct {
	mu    sync.Mutex
	wake  []core.Choice
	admit []core.Choice
	wpos  int
	apos  int
}

// newReplayChooser splits a decision log into its per-kind replay streams.
func newReplayChooser(choices []core.Choice) *replayChooser {
	c := &replayChooser{}
	for _, ch := range choices {
		switch ch.Kind {
		case policy.ChooseWake:
			c.wake = append(c.wake, ch)
		case policy.ChooseAdmit:
			c.admit = append(c.admit, ch)
		}
	}
	return c
}

// Choose implements qithread.Chooser.
func (c *replayChooser) Choose(kind policy.ChoiceKind, ids []int, n, def int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var stream []core.Choice
	var pos *int
	switch kind {
	case policy.ChooseWake:
		stream, pos = c.wake, &c.wpos
	case policy.ChooseAdmit:
		stream, pos = c.admit, &c.apos
	default:
		return def
	}
	if *pos >= len(stream) {
		return def
	}
	idx := stream[*pos].Index
	*pos++
	if idx < 0 || idx >= n {
		return def
	}
	return idx
}

// pctChooser implements the PCT-style deterministic random walk: every thread
// gets a pseudo-random priority on first sight (deterministic, because thread
// ids surface in a deterministic order for a fixed decision prefix), turn and
// wake choices pick the highest-priority candidate, and d pre-drawn
// priority-CHANGE points demote the just-picked thread below everything —
// Burckhardt et al.'s d-bounded schedule sampling, made exactly reproducible
// by seeding the generator from the baseline schedule hash and the run index.
type pctChooser struct {
	mu     sync.Mutex
	rng    uint64
	prio   map[int]uint64
	change map[int]bool // decision positions where a change point fires
	low    uint64       // descending priorities handed out at change points
	pos    int
	log    []decision
}

// newPCTChooser draws d change points in [0, horizon) from the seed.
func newPCTChooser(seed uint64, d, horizon int) *pctChooser {
	c := &pctChooser{rng: seed, prio: map[int]uint64{}, change: map[int]bool{}}
	if horizon < 1 {
		horizon = 1
	}
	for i := 0; i < d; i++ {
		c.change[int(c.next()%uint64(horizon))] = true
	}
	return c
}

// next steps the splitmix64 generator — tiny, seedable, dependency-free.
func (c *pctChooser) next() uint64 {
	c.rng += 0x9e3779b97f4a7c15
	z := c.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// priority returns the thread's sampled priority, drawing it on first sight.
// The high bit keeps initial priorities above every change-point demotion.
func (c *pctChooser) priority(tid int) uint64 {
	p, ok := c.prio[tid]
	if !ok {
		p = c.next() | 1<<63
		c.prio[tid] = p
	}
	return p
}

// Choose implements qithread.Chooser.
func (c *pctChooser) Choose(kind policy.ChoiceKind, ids []int, n, def int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx := def
	switch kind {
	case policy.ChooseTurn, policy.ChooseWake:
		best := uint64(0)
		for i, id := range ids {
			if p := c.priority(id); p > best {
				best, idx = p, i
			}
		}
		if c.change[c.pos] {
			c.low++
			c.prio[ids[idx]] = c.low // below every sampled priority
		}
	case policy.ChooseAdmit:
		idx = int(c.next() % uint64(n))
	}
	c.pos++
	c.log = append(c.log, logged(kind, n, def, idx))
	return idx
}

// Log returns the decisions resolved so far (copy-free, like
// pathChooser.Log); a PCT run's log makes it branchable and reproducible
// exactly like a DPOR run's.
func (c *pctChooser) Log() []decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.log[:len(c.log):len(c.log)]
}
