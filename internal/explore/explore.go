// Package explore turns the deterministic scheduler into a schedule-space
// explorer: instead of replaying ONE recorded execution, it systematically
// enumerates MANY distinct legal executions of the same program.
//
// The paper's five semantics-aware policies exist precisely because different
// legal resolutions of the same scheduling decisions produce observably
// different executions (branched-wake vs wake-amap divergences, §3). The
// runtime's choice-point hook (qithread.Config.Chooser, internal/policy)
// exposes exactly those decisions — which runnable thread is granted the free
// turn, which waiter a signal wakes, where ingress admission boundaries fall —
// and this package drives the hook with two search strategies:
//
//   - DPOR-lite (Session.ExploreDPOR): branching over the decision log of
//     each completed run, layered breadth-first over flip sets and pruned by
//     execution fingerprints (the existing FNV trace/delivery/admit hashes)
//     so equivalent interleavings are explored once. The frontier persists
//     to the results directory, so exploration resumes across invocations.
//   - PCT-style random walk (Session.ExplorePCT): deterministic priority
//     fuzzing seeded from the baseline schedule hash, with d priority-change
//     points per run (Burckhardt et al.'s probabilistic concurrency testing,
//     in the deterministic re-execution setting where a "random" schedule is
//     exactly reproducible from its seed).
//
// An oracle classifies every run — new fingerprint, deadlock, panic, or
// user-assertion failure via the program's registered invariant — and any
// failure is minimized to a repro schedule file (v3, internal/trace) that
// qireplay re-executes exactly: the schedule's events drive turn order
// through replay mode and the decision log drives the choices replay cannot
// express (wake targets, admission boundaries).
package explore

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"qithread"
	"qithread/internal/core"
	"qithread/internal/trace"
)

// Program is an explorable workload: a deterministic base configuration, a
// run function, and an invariant oracle over its output.
type Program struct {
	// Name registers the program for cmd/qiexplore and cmd/qireplay.
	Name string
	// Base returns a fresh runtime configuration for one run. It must use a
	// deterministic Mode; the runner forces Record on and installs the
	// exploration Chooser.
	Base func() qithread.Config
	// Run executes the program and returns its deterministic output checksum
	// (the workload.App contract).
	Run func(rt *qithread.Runtime) uint64
	// Check, when non-nil, is the user-assertion oracle: a non-nil error
	// classifies the run as an assertion failure.
	Check func(out uint64) error
	// Variants are alternative configurations whose plain fingerprints serve
	// as divergence ground truth; see Session.Rediscoveries.
	Variants []Variant
}

var (
	regMu    sync.Mutex
	registry = map[string]*Program{}
)

// Register adds a program to the explorer's registry. Duplicate names panic —
// the registry maps CLI names to ground truth, silently replacing one would
// invalidate results directories.
func Register(p *Program) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[p.Name]; dup {
		panic("explore: duplicate program " + p.Name)
	}
	registry[p.Name] = p
}

// Lookup returns the named program, or nil.
func Lookup(name string) *Program {
	regMu.Lock()
	defer regMu.Unlock()
	return registry[name]
}

// Names lists the registered programs in sorted order.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Outcome classifies one explored run.
type Outcome uint8

const (
	// OutcomeOK: the run completed and the invariant held.
	OutcomeOK Outcome = iota
	// OutcomeAssertFail: the run completed but Program.Check rejected the
	// output — the seeded-bug detection path.
	OutcomeAssertFail
	// OutcomeDeadlock: the scheduler detected a deterministic deadlock (every
	// thread blocked without a timeout).
	OutcomeDeadlock
	// OutcomePanic: the program panicked on the main thread.
	OutcomePanic
	// OutcomeHang: the run exceeded the real-time watchdog without finishing
	// or deadlocking deterministically.
	OutcomeHang
)

// String returns "ok", "assert-fail", "deadlock", "panic" or "hang".
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeAssertFail:
		return "assert-fail"
	case OutcomeDeadlock:
		return "deadlock"
	case OutcomePanic:
		return "panic"
	case OutcomeHang:
		return "hang"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// Failure reports whether the outcome is a bug-class result worth a repro.
func (o Outcome) Failure() bool {
	return o == OutcomeAssertFail || o == OutcomeDeadlock || o == OutcomePanic
}

// Result is one explored run's classification.
type Result struct {
	Outcome Outcome
	// Output is the program checksum (valid when the run completed).
	Output uint64
	// Err carries the failure detail: the Check error, panic value, or
	// deadlock diagnostic.
	Err string
	// Fingerprint condenses the execution for pruning and divergence
	// comparison: the partitioned-execution fingerprint (per-domain schedule
	// hashes + delivery hash) extended with the output checksum.
	Fingerprint string
	// Trace is the default domain's recorded schedule — the replayable half
	// of a repro file. Nil when recording could not complete (hang), and for
	// the search's own untraced runs (see runPath).
	Trace []core.Event
	// Choices is the full decision log the run resolved, forced prefix
	// included — the other half of a repro file. The search's own runs leave
	// it nil and keep only log; RunForced, ReplayRepro and Minimize fill it.
	Choices []core.Choice
	// log is the decision log as the search keeps it (chooser.go).
	log []decision
	// meta aligns each decision with the recorded trace (position, turn
	// candidates) for happens-before flip pruning; empty for untraced runs.
	// In-memory only — never persisted, so results directories stay
	// format-compatible.
	meta alignment
}

// DefaultWatchdog bounds one run's real time. Explored programs are tiny;
// anything this slow is a livelock or a scheduler bug, not a slow run.
const DefaultWatchdog = 5 * time.Second

// RunForced executes one exploration run: the forced decision prefix is
// replayed positionally, every decision past it resolves to the configured
// policy's default, and the full decision log is recorded. An empty prefix is
// the baseline run (all defaults — the execution the unhooked runtime would
// produce).
func RunForced(p *Program, forced []core.Choice, watchdog time.Duration) Result {
	res := runPath(p, prefixFlip(decisionsOf(forced)), len(forced), watchdog, true)
	res.Choices = choicesOf(res.log)
	return res
}

// runPath is RunForced on a frontier entry. An untraced run is what the
// search executes when nothing will read the schedule back — the fingerprint
// comes from the scheduler's running hash, branching needs only the decision
// log — so it retains no event trace and records no alignment. Traced runs
// are for whoever needs the events: a repro file, the HB pruner.
//
// The decision log is allocated once, for size decisions with a little
// headroom: size is the length of the log the entry was flipped from (a
// minimization probe passes the failing run's), and sibling runs drift by a
// few decisions. So append neither copies the log as it grows nor leaves the
// frontier, which retains the log of every expanded run, holding a half-empty
// doubling.
func runPath(p *Program, f flip, size int, watchdog time.Duration, traced bool) Result {
	ch := &pathChooser{forced: f}
	if size > 0 {
		size += size/8 + 8
		ch.log = make([]decision, 0, size)
	}
	if traced {
		ch.align = &alignment{}
	}
	res := runOnce(p, nil, ch, watchdog, traced)
	res.log = ch.Log()
	res.meta = ch.Alignment()
	if testHookLogCap != nil {
		ch.mu.Lock()
		testHookLogCap(size, cap(ch.log))
		ch.mu.Unlock()
	}
	return res
}

// testHookLogCap, when set by a test, is handed the capacity runPath sized a
// run's decision log for and the capacity it ended with.
var testHookLogCap func(sized, final int)

// discardSink puts a scheduler into streaming-record mode with nowhere to
// stream to: the running trace hash is maintained, no event is retained.
type discardSink struct{}

func (discardSink) Append(core.Event) error { return nil }

// RunVariant executes the program once, UNHOOKED, under an alternative base
// configuration — the reference executions whose fingerprints the explorer
// must rediscover (e.g. the same program under WakeAMAP instead of the
// baseline policies).
func RunVariant(p *Program, base func() qithread.Config, watchdog time.Duration) Result {
	v := &Program{Name: p.Name, Base: base, Run: p.Run, Check: p.Check}
	return runOnce(v, nil, nil, watchdog, true)
}

// runOnce builds the runtime, installs the chooser and oracle hooks, and
// executes one run under a real-time watchdog. An untraced run fingerprints
// the execution exactly as a traced one does but returns no Trace.
//
// The run goroutine, the completion channel and the watchdog come from a
// recycled scaffold (scaffold.go); what is still made per run is the
// deadlock handler, which must name its own runtime, and cfg.Chooser.
//
// Failure modes leak by design: a deadlocked or hung run's threads stay
// suspended forever (the deadlock handler blocks so the scheduler state stays
// frozen and readable) and keep the scaffold they report on, which is
// acceptable for a bounded-budget exploration process. A panic on any thread
// of the default domain is OutcomePanic: the run is hosted (every
// deterministic run is), so a child thread is a coroutine of the run
// goroutine, its panic is re-raised there, in whatever the main thread was
// waiting on, and unwinds into scaffold.run's recover like one of the main
// thread's own. That run's scaffold is abandoned too, and the coroutine that
// panicked is gone, not pooled. A panic in another domain, on that domain's
// own driving goroutine, still takes the process down with it, and that exit
// is itself a loud bug report.
func runOnce(p *Program, replay []core.Event, ch qithread.Chooser, watchdog time.Duration, traced bool) Result {
	if watchdog <= 0 {
		watchdog = DefaultWatchdog
	}
	cfg := p.Base()
	cfg.Record = true
	cfg.Replay = replay
	if !traced && cfg.StreamTrace == nil {
		cfg.StreamTrace = func(domainID int) qithread.TraceSink { return discardSink{} }
	}
	if ch != nil {
		// One shared instance across domains: the decision log is a single
		// global sequence (the chooser serializes consultations internally).
		cfg.Chooser = func(domainID int) qithread.Chooser { return ch }
	}
	rt := qithread.New(cfg)

	sc := takeScaffold(watchdog)
	rt.Scheduler().SetDeadlockHandler(func(msg string) {
		// The send orders every write of the run's scheduler before the
		// reads below; then the run's goroutine freezes here for good. The
		// later rt.Fingerprint read is race-free only because no registered
		// program launches a domain: a launched domain's deadlock would
		// arrive here too, on that domain's goroutine, with others running.
		sc.done <- end{rt: rt, outcome: OutcomeDeadlock, msg: msg}
		select {}
	})
	sc.start(p, rt)

	e, ok := sc.await(rt)
	if ok && e.outcome == OutcomeOK {
		sc.recycle()
	} else {
		// The scaffold is abandoned with the run, but its watchdog is still
		// stopped — at thousands of runs a second, unstopped ones would pile
		// up as pending timers until each one's full duration passed — and
		// so is its run goroutine, which ends if the run ever does.
		sc.timer.Stop()
		sc.stop()
	}
	if !ok {
		// The run is stuck in real time without a deterministic deadlock
		// (e.g. a livelock through the nondeterministic edges). The frozen
		// runtime cannot be read safely, so the result carries no trace.
		return Result{Outcome: OutcomeHang, Err: "watchdog expired"}
	}
	res := Result{Outcome: e.outcome, Output: e.out, Err: e.msg}
	if e.outcome == OutcomeOK && p.Check != nil {
		if err := p.Check(e.out); err != nil {
			res.Outcome, res.Err = OutcomeAssertFail, err.Error()
		}
	}
	if traced {
		res.Trace = rt.Trace()
	}
	res.Fingerprint = fingerprintOf(rt, res.Output)
	return res
}

// fingerprintOf condenses a finished (or deterministically frozen) run into
// the pruning key: the partitioned-execution fingerprint plus the output
// checksum, hex fields joined by "+". Two runs with equal keys took
// schedule-equivalent paths to the same result; exploring past one of them is
// redundant. The key is built in one buffer — it is made once per run and
// lives in the seen set — from the fingerprint's parts, which like the
// buffer stay on the stack for up to two domains.
func fingerprintOf(rt *qithread.Runtime, output uint64) string {
	var hbuf [2]uint64
	hs, deliveries := rt.AppendFingerprint(hbuf[:0])
	var buf [4*16 + 3]byte
	b := buf[:0]
	for _, h := range hs {
		b = append(strconv.AppendUint(b, h, 16), '+')
	}
	b = append(strconv.AppendUint(b, deliveries, 16), '+')
	return string(strconv.AppendUint(b, output, 16))
}

// ReplayRepro re-executes a repro file produced by the explorer: the events
// enforce turn order through schedule replay while the decision log's wake
// and admission entries drive the choices a TID-ordered schedule cannot
// express. It returns the run's classification; reproduction succeeded when
// the outcome and fingerprint match the original run's.
func ReplayRepro(p *Program, events []core.Event, choices []core.Choice, watchdog time.Duration) Result {
	res := runOnce(p, events, newReplayChooser(choices), watchdog, true)
	res.Choices = choices
	return res
}

// LoadRepro reads a repro schedule file (v3, internal/trace) back into its
// events and decision log.
func LoadRepro(path string) ([]core.Event, []core.Choice, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return trace.LoadExplored(f)
}

// Hash returns the schedule hash of a result's trace (0 when absent). It
// seeds the PCT walk and labels runs in the results directory.
func (r Result) Hash() uint64 {
	if len(r.Trace) == 0 {
		return 0
	}
	return trace.Hash(r.Trace)
}
