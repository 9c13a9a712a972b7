package explore

import (
	"fmt"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"qithread/internal/policy"
)

// Session is one exploration of one program: the fingerprint-pruned state
// space walked so far, the unexpanded frontier, and the failures found. With
// a results directory it persists all three, so a later invocation resumes
// exactly where the budget ran out (the persisted-frontier half of DPOR).
//
// A session explores with Workers concurrent workers (see parallel.go), each
// executing candidate schedules in its own isolated Runtime. Workers <= 1 is
// the serial search, identical in runs.csv bytes and in frontier order to the
// single-threaded explorer this engine replaced — run ids, record order,
// branch order and repro naming are all preserved, which is what keeps the
// E20 ground truth pinned.
type Session struct {
	P        *Program
	Dir      string // "" disables persistence
	Watchdog time.Duration
	Verbose  func(format string, args ...any) // nil silences progress
	// Workers is the number of concurrent exploration workers (<= 1: serial).
	// Set before calling ExploreDPOR/ExplorePCT.
	Workers int
	// HB enables happens-before flip pruning (hb.go): turn-choice flips whose
	// reordering provably commutes are dropped from the frontier instead of
	// run. Off by default — the fingerprint-only search order is the pinned
	// PR 8 behaviour.
	HB bool

	mu        sync.Mutex     // guards all mutable state below
	runs      int            // run ids handed out (resume continues the count)
	seen      map[string]int // fingerprint -> run id that first produced it
	frontier  flipQueue      // unexplored forced prefixes, FIFO (frontier.go)
	failures  int
	repros    []string        // repro file paths emitted this session and before
	reproSigs map[string]bool // outcome+minimized-prefix signatures already emitted
	maxDepth  int             // deepest forced prefix run so far
	pruned    int             // flips dropped by happens-before pruning

	pend     []byte // runs.csv lines recorded but not yet flushed
	pendRuns int
	runsSize int64 // bytes of runs.csv as loaded plus what this session appended (persist.go)

	loadWarnings int // corrupt lines skipped while resuming
	workerStats  []WorkerStat
}

// Results-directory layout, line-oriented text throughout. The writers are in
// persist.go; ReadResults there is the one reader, for a resuming Session and
// for qistat alike:
//
//	runs.csv     one line per run: id,strategy,depth,decisions,outcome,new,fingerprint,err
//	             (its new=true rows are the seen set, first-discovery order)
//	frontier.txt frontierHeader, then per expanded run with flips still queued
//	             an "L" line (its decision log) and an "F" line (their pos:alt pairs)
//	workers.txt  per-worker throughput/prune stats of the last invocation
//	repro-*.sched  minimized v3 repro schedules, one per distinct failure
//	.lock        flock target: one writing session at a time
//
// runs.csv grows by appends; frontier.txt and workers.txt are replaced by
// atomic temp-file + rename (a reader never observes a torn file). A seen.txt
// is a leftover of a build that kept the seen set twice; nothing reads it.
// See persist.go.
const (
	runsFile     = "runs.csv"
	frontierFile = "frontier.txt"
	workersFile  = "workers.txt"
	runsHeader   = "run,strategy,depth,decisions,outcome,new,fingerprint,err"
	// A workers.txt row is the worker's index and then WorkerStat's fields.
	workersHeader = "worker,runs,new,branched,pruned,elapsed_ms"
	workersRow    = "%d,%d,%d,%d,%d,%d"
	// flushEvery bounds how many recorded runs may sit in the write buffer:
	// persistence is batched (one flock + one write per batch, not per run)
	// without letting a crash lose more than a batch.
	flushEvery = 64
)

// WorkerStat is one worker's contribution to an ExploreDPOR/ExplorePCT call.
type WorkerStat struct {
	Runs     int           // runs this worker executed
	New      int           // runs that discovered a new fingerprint
	Branched int           // flips this worker's runs added to the frontier
	Pruned   int           // flips dropped by happens-before pruning
	Elapsed  time.Duration // wall time inside the search loop
}

// markSeen records fp as first discovered by run id, reporting whether it
// was absent. Caller holds mu.
func (s *Session) markSeen(fp string, id int) bool {
	if _, ok := s.seen[fp]; ok {
		return false
	}
	s.seen[fp] = id
	return true
}

// NewSession opens (or resumes) an exploration session. A non-empty dir is
// created if needed and prior state is loaded from it under the directory
// lock.
func NewSession(p *Program, dir string, watchdog time.Duration) (*Session, error) {
	s := &Session{
		P: p, Dir: dir, Watchdog: watchdog,
		seen:      map[string]int{},
		reproSigs: map[string]bool{},
	}
	if dir == "" {
		return s, nil
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

// Runs returns the total number of runs executed (across resumed
// invocations).
func (s *Session) Runs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs
}

// Distinct returns the number of distinct execution fingerprints discovered.
func (s *Session) Distinct() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.seen)
}

// Failures returns the number of failing runs recorded.
func (s *Session) Failures() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failures
}

// Repros returns the repro schedule files emitted (this session and, on
// resume, before).
func (s *Session) Repros() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.repros...)
}

// FrontierLen returns the number of unexpanded forced prefixes.
func (s *Session) FrontierLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frontier.len()
}

// MaxDepth returns the deepest forced prefix run so far.
func (s *Session) MaxDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxDepth
}

// Pruned returns the number of flips dropped by happens-before pruning.
func (s *Session) Pruned() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pruned
}

// LoadWarnings returns the number of corrupt results-file lines skipped while
// resuming (torn writes from a crashed invocation).
func (s *Session) LoadWarnings() int { return s.loadWarnings }

// WorkerStats returns each worker's contribution to the last
// ExploreDPOR/ExplorePCT call.
func (s *Session) WorkerStats() []WorkerStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]WorkerStat(nil), s.workerStats...)
}

// Seen reports whether the fingerprint was already discovered.
func (s *Session) Seen(fp string) bool {
	_, ok := s.SeenAt(fp)
	return ok
}

// SeenAt returns the run id that first produced the fingerprint, for
// runs-to-discovery measurements (EXPERIMENTS.md E21).
func (s *Session) SeenAt(fp string) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.seen[fp]
	return id, ok
}

// ExploreDPOR runs the fingerprint-pruned branching search: pop a forced
// prefix, run it, and — only when the run reached a NEW fingerprint — branch
// every decision at or past the prefix into its unexplored alternatives.
// Pruning on fingerprints is what makes this "DPOR-lite": instead of running
// a full persistent-set computation, two prefixes are considered equivalent
// when they produce the same execution fingerprint, which the runtime already
// computes for free. With HB enabled, a real happens-before independence
// relation additionally drops turn flips that provably commute (hb.go) —
// those never enter the frontier at all.
//
// The frontier pops FIFO, which layers the search breadth-first over FLIP
// SETS: all single-decision perturbations of the baseline run first, then
// pairs (a branch only extends a prefix forward, so each flip set is
// enumerated exactly once), and so on. The interesting structure — policy
// divergences, atomicity windows — lives a few flips from the default
// schedule; a LIFO pop would instead commit the whole budget to one subtree
// of a space that is exponential in the decision count. maxDepth bounds how
// deep branching reaches into the decision log (0 = unbounded); budget
// bounds the number of exploration runs this invocation (minimization runs
// are not counted — they are bounded separately per failure).
//
// With Workers > 1 the same frontier feeds a pool of workers (parallel.go):
// the pop order — and therefore which prefix a given run id denotes — becomes
// timing-dependent, but the search remains breadth-layered and every run is
// individually deterministic.
func (s *Session) ExploreDPOR(budget, maxDepth int) error {
	return s.exclusively(func() error {
		s.mu.Lock()
		if s.runs == 0 && s.frontier.len() == 0 {
			s.frontier.push(flip{}) // the all-defaults baseline
		}
		s.mu.Unlock()
		return s.runDPORPool(budget, maxDepth)
	})
}

// ExplorePCT runs the PCT-style deterministic random walk: `budget` runs,
// each a fresh priority assignment with d change points, seeded from the
// baseline schedule hash XOR the run index — "seeded from the schedule file",
// so the walk is exactly reproducible and two walks over the same program
// never resample the same schedules unless the seeds collide. Workers > 1
// distributes the walk indices over the pool; the walks themselves are
// independent, so only record order varies.
func (s *Session) ExplorePCT(budget, d int, seed uint64) error {
	return s.exclusively(func() error {
		base := RunForced(s.P, nil, s.Watchdog)
		s.mu.Lock()
		id, _ := s.recordLocked("pct-base", 0, base)
		s.mu.Unlock()
		if base.Outcome.Failure() {
			if err := s.minimizeAndEmit(0, base, id); err != nil {
				return err
			}
		}
		if seed == 0 {
			seed = base.Hash()
		}
		return s.runPCTPool(budget, d, seed, len(base.Choices))
	})
}

// expandLocked branches one newly discovered run into its unexplored flips —
// every alternative of every decision from position `from` (the depth of the
// prefix the run was forced with) on — and queues them on the frontier. The
// flips share the run's decision log, so this allocates per chunk of
// flipChunk entries, not per flip. It returns how many flips were kept and
// how many the happens-before pruner dropped. Caller holds mu.
func (s *Session) expandLocked(from int, res *Result, maxDepth int) (kept, pruned int) {
	limit := len(res.log)
	if maxDepth > 0 && limit > maxDepth {
		limit = maxDepth
	}
	var pruner *flipPruner
	if s.HB {
		pruner = newFlipPruner(res)
	}
	log := new([]decision) // not &res.log: that would pin res.Trace with it
	*log = res.log
	for i := from; i < limit; i++ {
		d := res.log[i]
		for alt := int32(0); alt < d.n; alt++ {
			if alt == d.index {
				continue
			}
			if pruner != nil && d.kind == policy.ChooseTurn && pruner.redundant(i, int(alt)) {
				pruned++
				continue
			}
			s.frontier.push(flip{log: log, pos: int32(i), alt: alt})
			kept++
		}
	}
	s.pruned += pruned
	return kept, pruned
}

// recordLocked classifies one run against the seen set, buffers its runs.csv
// line, and returns the run id and whether its fingerprint was new. Caller
// holds mu; the write buffer is flushed every flushEvery runs.
func (s *Session) recordLocked(strategy string, depth int, res Result) (id int, isNew bool) {
	id = s.runs
	s.runs++
	if depth > s.maxDepth {
		s.maxDepth = depth
	}
	if res.Outcome.Failure() {
		s.failures++
	}
	isNew = res.Fingerprint != "" && s.markSeen(res.Fingerprint, id)
	if s.Verbose != nil { // tested at the call: boxing the arguments allocates, every run
		s.Verbose("run %d [%s] depth=%d decisions=%d outcome=%s new=%v",
			id, strategy, depth, len(res.log), res.Outcome, isNew)
	}
	if s.Dir != "" {
		line := fmt.Sprintf("%d,%s,%d,%d,%s,%v,%s,%s\n",
			id, strategy, depth, len(res.log), res.Outcome, isNew,
			res.Fingerprint, csvEscape(res.Err))
		s.pend = append(s.pend, line...)
		s.pendRuns++
		if s.pendRuns >= flushEvery {
			s.flushLocked()
		}
	}
	return id, isNew
}

// csvEscape flattens an error message onto one comma-free line of at most
// 200 bytes before its "...". The cut falls on a rune boundary: deadlock
// dumps carry thread and object names, which are user strings.
func csvEscape(v string) string {
	v = strings.ReplaceAll(v, "\n", "\\n")
	v = strings.ReplaceAll(v, ",", ";")
	if len(v) > 200 {
		cut := 200
		for cut > 0 && !utf8.RuneStart(v[cut]) {
			cut--
		}
		v = v[:cut] + "..."
	}
	return v
}

// minimizeAndEmit shrinks a failing run to a minimal forced prefix and writes
// the repro schedule file. Failures that minimize to an already-emitted
// decision prefix are the SAME bug reached through a longer path; counting
// them (s.failures) matters, re-emitting them would bury the distinct repros.
// cut is the shortest failing cut of the run's log when it is known (the
// depth of the forced prefix a DPOR failure was found with), -1 when the
// minimization must search for it (a PCT walk), and id is the run id (repro
// files are named after it). A duplicate is known from the untraced runs of
// the minimization, so only a new repro's prefix gets a traced run, for its
// file. The minimization probes run outside the session lock — they are pure
// re-runs — so parallel workers keep exploring while a failure shrinks.
func (s *Session) minimizeAndEmit(cut int, res Result, id int) error {
	if testHookMinimize != nil {
		testHookMinimize(res, cut)
	}
	min, final, runs := minimize(s.P, res, cut, s.Watchdog)
	if s.Verbose != nil {
		s.Verbose("minimized %s: %d decisions -> %d-decision prefix (%d runs)",
			res.Outcome, len(res.log), len(min), runs)
	}
	sig := final.Outcome.String() + "|" + formatPrefix(final.log)
	s.mu.Lock()
	if s.reproSigs[sig] {
		s.mu.Unlock()
		if s.Verbose != nil {
			s.Verbose("repro: duplicate of an emitted minimized prefix; skipped")
		}
		return nil
	}
	s.reproSigs[sig] = true
	s.mu.Unlock()
	if s.Dir == "" {
		return nil
	}
	_, final, _ = traceRepro(s.P, res, min, final, s.Watchdog)
	name := fmt.Sprintf("repro-%s-%03d.sched", final.Outcome, id)
	path, err := s.writeRepro(name, final)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.repros = append(s.repros, path)
	s.mu.Unlock()
	if s.Verbose != nil {
		s.Verbose("repro: %s (%d events, %d decisions)", path, len(final.Trace), len(final.log))
	}
	return nil
}

// testHookMinimize, when set by a test, is handed every failing run a session
// minimizes and the cut it starts from.
var testHookMinimize func(res Result, cut int)
