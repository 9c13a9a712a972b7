package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Run shape. A workload runs a fixed amount of work split into fullTrials
// equal trials; timings are reported as medians over the trials, so one
// disturbed trial moves nothing. Set-up is repeated setupReps times, each
// repetition followed by its share of the trials, and the median reported: the
// host has slow episodes that last seconds, and repetitions made back to back
// would all fall inside one. The timed loops stop early once the time budget
// is spent, but never before minTrials in total, so a slow host stays inside
// the driver's caps without changing any per-op definition. The traced run
// uses tracedTrials after one set-up.
const (
	fullTrials   = 41
	minTrials    = 21
	tracedTrials = 11
	setupReps    = 5
	// refSeconds is the --seconds value the per-workload trial sizes are
	// calibrated for; other values scale ops per trial linearly.
	refSeconds = 20
)

// counts is what one trial did, as reported by the program's own counters
// (Runtime.Stats, GatewayStats, ...). Counts from several trials add.
type counts struct {
	ops, failed int64 // ops attempted / ops whose check failed
	vtime       int64 // Σ Runtime.VirtualMakespan()

	// core: summed over every scheduler domain of every runtime.
	syncOps, turns, leaseExtends int64
	handoffs                     int64 // exact only when handoffsExact
	handoffsExact                bool
	runtimes, domains, threads   int64 // runtimes and scheduler domains constructed, threads created

	// policy (catalog).
	policyLeaseExtends, policyDecisions int64

	// ingress / domain (server driver).
	epochs, collected, pushBlocks int64
	maxStage                      int64
	sendSlots, msgs               int64
	traceEvents                   int64 // schedule events written or re-executed

	// explore.
	distinct, failures int64
}

func (c *counts) add(o counts) {
	c.ops += o.ops
	c.failed += o.failed
	c.vtime += o.vtime
	c.syncOps += o.syncOps
	c.turns += o.turns
	c.leaseExtends += o.leaseExtends
	c.handoffs += o.handoffs
	c.handoffsExact = o.handoffsExact
	c.runtimes += o.runtimes
	c.domains += o.domains
	c.threads += o.threads
	c.policyLeaseExtends += o.policyLeaseExtends
	c.policyDecisions += o.policyDecisions
	c.epochs += o.epochs
	c.collected += o.collected
	c.pushBlocks += o.pushBlocks
	if o.maxStage > c.maxStage {
		c.maxStage = o.maxStage
	}
	c.sendSlots += o.sendSlots
	c.msgs += o.msgs
	c.traceEvents += o.traceEvents
	c.distinct += o.distinct
	c.failures += o.failures
}

// workload is one set of inputs the benchmark runs. setup does everything
// that precedes the first timed trial except the warm-up trial, which the
// runner adds; trial runs one trial's fixed work, checks its outputs and
// returns what it did together with the wall time of the work alone (output
// checks that re-read files are not part of it).
type workload interface {
	name() string
	// setup generates inputs from seed at the given size factor (1 = the
	// size calibrated for refSeconds).
	setup(seed uint64, size float64) error
	trial(tc trialCtx) (counts, time.Duration, error)
	close()
}

// trialCtx identifies one trial to the workload: its index (-1 for the
// warm-up), and, in the traced run, the recorder and the open trial span
// that the trial's spans hang under.
type trialCtx struct {
	id   int
	rec  *recorder
	span int
}

// opFailures wraps an error describing failures that the trial already
// counted op by op, so the runner does not fail the whole trial for them.
type opFailures struct{ error }

// runStats is one timed run of a workload.
type runStats struct {
	workload string
	trials   int
	walls    []time.Duration // per-trial wall, in trial order
	perOp    []float64       // per-trial seconds per op
	total    counts
	wall     time.Duration // Σ trial walls
	setup    time.Duration // median over the run's set-ups
	mallocs  uint64
	bytes    uint64
	cpu      time.Duration // process CPU (user+sys) over the timed trials
	gcCPU    float64       // GC CPU seconds over the timed trials
	peakHeap uint64        // traced run only
	errs     []string
}

// quartiles of v (sorted copy), using the same inclusive method for every
// statistic the benchmark prints.
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// heapSampler samples the heap in use every 10 ms without stopping the
// world (runtime/metrics, not ReadMemStats) and keeps the maximum.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-tick.C:
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() uint64 {
	close(h.stop)
	h.wg.Wait()
	return h.peak
}

// setUp runs the workload's whole set-up once — input generation, reference
// runs, recording the replay input, one untimed warm-up trial — and returns
// how long it took. A workload that was set up before is closed first.
func setUp(w workload, p plan) (time.Duration, error) {
	w.close()
	t0 := time.Now()
	if err := w.setup(p.seed, p.size); err != nil {
		return 0, fmt.Errorf("%s: set-up: %w", w.name(), err)
	}
	if _, _, err := w.trial(trialCtx{id: -1}); err != nil {
		return 0, fmt.Errorf("%s: warm-up trial: %w", w.name(), err)
	}
	return time.Since(t0), nil
}

// timeTrials runs up to n more trials of an already set-up workload and adds
// them to rs. With a positive budget the loop stops once the budget is spent
// and at least atLeast trials ran. A trial whose check fails counts all its
// ops as failed and the run goes on, so fail_share is reported even on
// failure.
func (rs *runStats) timeTrials(w workload, n, atLeast int, budget time.Duration, rec *recorder) {
	var sampler *heapSampler
	if rec != nil {
		sampler = startHeapSampler()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, gc0 := cpuTime(), gcCPUSeconds()
	start := time.Now()
	for i := 0; i < n; i++ {
		if budget > 0 && i >= atLeast && time.Since(start) >= budget {
			break
		}
		id := rs.trials
		span := rec.begin("trial", 0, id)
		c, wall, err := w.trial(trialCtx{id: id, rec: rec, span: span})
		rec.end(span)
		if err != nil {
			if _, counted := err.(opFailures); !counted {
				c.failed = c.ops
			}
			rs.errs = append(rs.errs, fmt.Sprintf("trial %d: %v", id, err))
		}
		rs.total.add(c)
		rs.walls = append(rs.walls, wall)
		rs.wall += wall
		if c.ops > 0 {
			rs.perOp = append(rs.perOp, wall.Seconds()/float64(c.ops))
		}
		rs.trials++
	}
	rs.cpu += cpuTime() - cpu0
	rs.gcCPU += gcCPUSeconds() - gc0
	runtime.ReadMemStats(&m1)
	rs.mallocs += m1.Mallocs - m0.Mallocs
	rs.bytes += m1.TotalAlloc - m0.TotalAlloc
	if sampler != nil {
		if peak := sampler.finish(); peak > rs.peakHeap {
			rs.peakHeap = peak
		}
	}
}

// opsPerSec is ops per trial over the median trial wall time.
func (rs *runStats) opsPerSec() float64 {
	if len(rs.perOp) == 0 {
		return 0
	}
	return 1 / quantile(rs.perOp, 0.5)
}

func (rs *runStats) perOpOf(v float64) float64 {
	if rs.total.ops == 0 {
		return 0
	}
	return v / float64(rs.total.ops)
}

func (rs *runStats) failShare() float64 {
	if rs.total.ops == 0 {
		return 1
	}
	return float64(rs.total.failed) / float64(rs.total.ops)
}
