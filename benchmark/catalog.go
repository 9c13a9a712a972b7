package main

import (
	"fmt"
	"time"

	"qithread"
	"qithread/internal/harness"
	"qithread/internal/programs"
	wl "qithread/internal/workload"
)

// catalog is the paper's own evaluation: every catalog program except the two
// documented timing-dependent ad-hoc-sync programs, each executed on a fresh
// runtime under the QiThread configuration, back to back (closed loop, one
// client). One op is one program execution.
//
// Wrappers, the policy stack and the turn mechanism do nearly all the work
// here and most turns are multi-runnable handoffs; domains, ingress, the log
// codecs and the explorer do nothing, so a gain claimed for those layers must
// not move this workload.

// catalogPasses is the number of passes over the program list per trial at
// size 1 (106 programs per pass).
const catalogPasses = 2

// adHocSync lists the programs whose ad-hoc synchronization makes their sync
// op counts depend on real timing (the same exclusion the lease-compat test
// makes), so they cannot take part in a bit-identical count check.
var adHocSync = map[string]bool{"canneal": true, "x264": true}

type catalogWorkload struct {
	apps   []wl.App
	names  []string
	ref    []uint64 // reference checksum per program (vanilla round robin)
	passes int
	// pass0 is the first completed pass's (ops, turns) signature; every later
	// pass must reproduce it.
	pass0Ops, pass0Turns int64
	cfg                  qithread.Config
}

func (w *catalogWorkload) name() string { return "catalog" }

func catalogSpecs() []programs.Spec {
	var out []programs.Spec
	for _, s := range programs.All() {
		if !adHocSync[s.Name] {
			out = append(out, s)
		}
	}
	return out
}

func (w *catalogWorkload) setup(seed uint64, size float64) error {
	*w = catalogWorkload{cfg: harness.QiThread().Cfg}
	w.passes = scaled(catalogPasses, size)
	p := wl.Params{Scale: 0.1, InputSeed: seed}
	ref := harness.VanillaRR().Cfg
	for _, s := range catalogSpecs() {
		app := s.Build(p)
		w.apps = append(w.apps, app)
		w.names = append(w.names, s.Name)
		w.ref = append(w.ref, app(qithread.New(ref)))
	}
	return nil
}

func (w *catalogWorkload) close() {}

func (w *catalogWorkload) trial(tc trialCtx) (counts, time.Duration, error) {
	rec, id := tc.rec, tc.id
	var c counts
	c.handoffsExact = true
	var firstErr error
	start := time.Now()
	for pass := 0; pass < w.passes; pass++ {
		var passOps, passTurns int64
		for i, app := range w.apps {
			prog := rec.begin("program", tc.span, id)
			sp := rec.begin("runtime.new", prog, id)
			rt := qithread.New(w.cfg)
			rec.end(sp)
			sp = rec.begin("app.run", prog, id)
			out := app(rt)
			rec.end(sp)
			rec.end(prog)

			st := rt.Stats()
			c.ops++
			c.vtime += rt.VirtualMakespan()
			c.syncOps += st.Ops
			c.turns += st.Turns
			c.leaseExtends += st.LeaseExtends
			c.handoffs += st.Handoffs
			c.runtimes++
			c.domains++
			c.threads += rt.ThreadsCreated()
			for _, m := range st.PolicyMetrics {
				c.policyLeaseExtends += m.LeaseExtends
				c.policyDecisions += m.Total()
			}
			passOps += st.Ops
			passTurns += st.Turns
			if out != w.ref[i] {
				c.failed++
				if firstErr == nil {
					firstErr = fmt.Errorf("%s: checksum %#x, reference %#x", w.names[i], out, w.ref[i])
				}
			}
		}
		if w.pass0Ops == 0 {
			w.pass0Ops, w.pass0Turns = passOps, passTurns
		} else if passOps != w.pass0Ops || passTurns != w.pass0Turns {
			return c, time.Since(start), fmt.Errorf("pass did %d ops / %d turns, the first pass did %d / %d",
				passOps, passTurns, w.pass0Ops, w.pass0Turns)
		}
	}
	wall := time.Since(start)
	if firstErr != nil {
		return c, wall, opFailures{firstErr}
	}
	return c, wall, nil
}

// normMakespan is the Figure 8 aggregate: Σ virtual makespan under the
// QiThread configuration over Σ under the ideal-parallel baseline, one
// execution of each program.
func (w *catalogWorkload) normMakespan() float64 {
	var qi, base int64
	nondet := harness.Nondet().Cfg
	for _, app := range w.apps {
		rt := qithread.New(w.cfg)
		app(rt)
		qi += rt.VirtualMakespan()
		rt = qithread.New(nondet)
		app(rt)
		base += rt.VirtualMakespan()
	}
	return float64(qi) / float64(base)
}

// scaled scales a per-trial amount by the size factor, keeping at least 1.
func scaled(n int, size float64) int {
	v := int(float64(n)*size + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}
