package qithread

import (
	"errors"
	"fmt"
	"io"

	"qithread/internal/ckpt"
	"qithread/internal/core"
)

// Epoch checkpoints. A long recorded run periodically snapshots its
// deterministic state at quiescent admission boundaries; a later replay
// loads one snapshot and continues from there (qireplay -from-checkpoint)
// instead of re-executing the whole prefix, reproducing the exact
// fingerprint and admit/shed hashes of the full run. The mechanism is
// documented bottom-up in internal/core/checkpoint.go (what a scheduler
// snapshot is and why no goroutine stack is ever serialized) and
// internal/ckpt (the file format); this file is the user-facing surface:
//
//	record:  cp, err := rt.Checkpoint(t, appState)   // at an epoch boundary
//	         SaveCheckpoint(f, cp)
//	resume:  cp, _ := LoadCheckpoint(f)
//	         rt := New(Config{..., Record: true, Resume: cp})
//	         rt.Run(func(t *Thread) {
//	             ... re-run setup: create objects, park workers ...
//	             if err := rt.Resume(t); err != nil { ... }
//	             ... continue the admission loop from cp.Epoch()+1 ...
//	         })
//
// The contract is structural replay: the resuming program re-executes its
// SETUP (thread registration, object creation, workers parking) with
// recording muted, and Resume verifies that the rebuilt structure matches
// the snapshot before reinstating counters, clocks, policy state and running
// hashes. Programs built for checkpointing therefore keep setup separate
// from progress (the workload carries progress in the checkpoint's App
// payload) — the same discipline any restartable server already follows.

// Checkpoint is a point-in-time snapshot of a deterministic execution at a
// quiescent epoch boundary.
type Checkpoint struct {
	rec *ckpt.Record
}

// Epoch returns the ingress epoch the checkpoint was taken at (0 when no
// gateway was registered).
func (cp *Checkpoint) Epoch() int64 { return cp.rec.Epoch() }

// App returns the application's own progress payload, exactly as passed to
// Runtime.Checkpoint.
func (cp *Checkpoint) App() []byte { return cp.rec.App }

// SaveCheckpoint writes a checkpoint ("qithread-checkpoint v4b", a
// CRC-checked binary record; see internal/ckpt).
func SaveCheckpoint(w io.Writer, cp *Checkpoint) error {
	return ckpt.Save(w, cp.rec)
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint. Checkpoints of
// the older layouts are refused with an error naming the version: "v1b"
// predates the embedded counter blocks and would resume with zeroed counters,
// "v2b" carries per-thread policy state as slot words that do not map onto
// policy.PerThread, and "v3b" holds its one domain in lists that would decode
// into an empty snapshot. Re-record the run to take a new one.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	rec, err := ckpt.Load(r)
	if err != nil {
		return nil, err
	}
	return &Checkpoint{rec: rec}, nil
}

// maxQuiescenceYields bounds the yield loop that drives the scheduler to a
// quiescent boundary. A program whose threads keep waking each other never
// quiesces; the bound turns that into a diagnostic instead of a hang.
const maxQuiescenceYields = 1 << 20

// quiesce drives t's domain to a checkpoint boundary with traced yields and
// returns holding the turn, or releases it and says why the boundary cannot
// be reached. The yields release through PutTurn directly, not
// Thread.release: a policy turn retention (WakeAMAP keeps the turn with a
// waker that has threads in the wake-up queue) would otherwise extend t's
// turn at every release point and the woken threads would never run — the
// drive must force real handoffs. Every other domain must be idle (never
// launched with a root; the default domain, Run's main thread's, never is):
// checkpointing is an admission-boundary mechanism, and cross-domain traffic
// must be drained first.
func (rt *Runtime) quiesce(t *Thread, what string) error {
	s := t.dom.sched
	for i := 0; ; i++ {
		s.GetTurn(t.ct())
		err := s.Quiescent(t.ct(), what)
		if errors.Is(err, core.ErrNotQuiescent) && i < maxQuiescenceYields {
			s.TraceOp(t.ct(), core.OpYield, 0, core.StatusOK)
			s.PutTurn(t.ct())
			continue
		}
		switch {
		case err == nil:
			if err = rt.othersIdle(t, what); err == nil {
				return nil // the caller proceeds under this turn hold
			}
		case errors.Is(err, core.ErrNotQuiescent):
			err = fmt.Errorf("qithread: %s: domain %d did not quiesce after %d yields; threads are waking each other across the boundary\n%s", what, t.dom.id, maxQuiescenceYields, s.Dump())
		}
		s.PutTurn(t.ct())
		return err
	}
}

// othersIdle refuses a checkpoint boundary while a domain other than t's has
// threads.
func (rt *Runtime) othersIdle(t *Thread, what string) error {
	for _, d := range registered(rt, &rt.domains) {
		if d != t.dom && d.hasThreads() {
			return fmt.Errorf("qithread: %s from %s, but %s has threads; a checkpoint boundary requires every other domain idle", what, t.dom, d)
		}
	}
	return nil
}

// Checkpoint snapshots the execution's deterministic state: t's domain's
// scheduler (counters, clocks, wait-list order, running hashes — never
// goroutine stacks), the cross-domain channel stamps, and every ingress
// gateway's admission state. app, when non-nil, serializes the program's own
// progress payload, stored verbatim (the runtime cannot reconstruct
// application state; the workload encodes what it needs to continue). It is
// called at the quiescent boundary itself — after every other thread has
// drained and parked, so it observes their final pre-checkpoint effects —
// and must not perform synchronization operations.
//
// The call first drives t's domain to a quiescent boundary by yielding —
// deterministically, so a replaying run that checkpoints at the same epochs
// traces identical schedules — and refuses while another domain has threads
// (see quiesce).
func (rt *Runtime) Checkpoint(t *Thread, app func() []byte) (*Checkpoint, error) {
	if !rt.det() {
		return nil, fmt.Errorf("qithread: Checkpoint requires a deterministic Mode")
	}
	if !rt.cfg.Record {
		return nil, fmt.Errorf("qithread: Checkpoint requires Record (the snapshot embeds the running trace hash)")
	}
	if err := rt.quiesce(t, "Checkpoint"); err != nil {
		return nil, err
	}
	defer t.release()
	rec := &ckpt.Record{Xseq: t.dom.xseq}
	if app != nil {
		rec.App = app()
	}
	st, err := t.dom.sched.CaptureState(t.ct())
	if err != nil {
		return nil, err
	}
	rec.Domain = *st
	for _, p := range registered(rt, &rt.xpipes) {
		cs, err := p.captureState()
		if err != nil {
			return nil, err
		}
		rec.Channels = append(rec.Channels, cs)
	}
	for _, gw := range registered(rt, &rt.gateways) {
		rec.Gateways = append(rec.Gateways, *gw.g.CaptureState())
	}
	return &Checkpoint{rec: rec}, nil
}

// Resume verifies that the program's re-executed setup phase rebuilt exactly
// the structure of Config.Resume's snapshot, then reinstates every counter,
// clock, policy state and running hash and unmutes recording. From its return
// the execution is the recorded run's continuation: the same threads are
// eligible in the same order, the trace hash continues from the same fold
// state, replayed ingress batches land on the same epochs, and the run's
// final fingerprint equals the uncheckpointed run's.
func (rt *Runtime) Resume(t *Thread) error {
	if !rt.det() {
		return fmt.Errorf("qithread: Resume requires a deterministic Mode")
	}
	cp := rt.cfg.Resume
	if cp == nil {
		return fmt.Errorf("qithread: Resume without Config.Resume")
	}
	rec := cp.rec
	if got, want := t.dom.id, rec.Domain.DomainID; got != want {
		return fmt.Errorf("qithread: Resume from domain %d, but the checkpoint was taken in domain %d", got, want)
	}
	if err := rt.quiesce(t, "Resume"); err != nil {
		return err
	}
	defer t.release()
	pipes := registered(rt, &rt.xpipes)
	if len(pipes) != len(rec.Channels) {
		return fmt.Errorf("qithread: setup created %d channels, checkpoint has %d", len(pipes), len(rec.Channels))
	}
	for i, p := range pipes {
		if err := p.restoreState(&rec.Channels[i]); err != nil {
			return err
		}
	}
	gws := registered(rt, &rt.gateways)
	if len(gws) != len(rec.Gateways) {
		return fmt.Errorf("qithread: setup created %d gateways, checkpoint has %d", len(gws), len(rec.Gateways))
	}
	for i, gw := range gws {
		if err := gw.g.RestoreState(&rec.Gateways[i]); err != nil {
			return err
		}
	}
	t.dom.xseq = rec.Xseq
	// The scheduler restore comes last: it verifies the rebuilt thread and
	// wait-list structure and unmutes recording.
	return t.dom.sched.RestoreState(t.ct(), &rec.Domain)
}

// captureState snapshots the pipe's stamp counters and running hash. Only a
// drained pipe is checkpointable: the ring holds values the runtime cannot
// serialize, so a checkpoint boundary drains cross-domain traffic first.
func (p *XPipe) captureState() (ckpt.ChannelState, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.n != 0 {
		return ckpt.ChannelState{}, fmt.Errorf("qithread: XPipe %q holds %d in-flight messages; drain it before checkpointing", p.name, p.n)
	}
	return ckpt.ChannelState{ID: p.id, Messages: p.sendSeq, Hash: p.hash, Closed: p.closed}, nil
}

// restoreState reinstates a captured snapshot into a pipe the resuming setup
// rebuilt, which must sit in the captured pipe's creation slot (the id seeds
// every stamp) and must not have carried a message yet.
func (p *XPipe) restoreState(st *ckpt.ChannelState) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.id != st.ID:
		return fmt.Errorf("qithread: restoring XPipe id %d state into XPipe %q (id %d); pipes must be re-created in the recorded order", st.ID, p.name, p.id)
	case p.sendSeq != 0 || p.delivered != 0:
		return fmt.Errorf("qithread: restoring into used XPipe %q (%d sent, %d delivered)", p.name, p.sendSeq, p.delivered)
	}
	p.sendSeq, p.delivered, p.hash, p.closed = st.Messages, st.Messages, st.Hash, st.Closed
	return nil
}
