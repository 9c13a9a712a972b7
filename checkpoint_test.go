package qithread_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"qithread"
	"qithread/internal/trace"
	"qithread/internal/workload"
)

// Epoch-checkpoint acceptance tests: a recorded ingress run periodically
// snapshots its state at quiescent admission boundaries; resuming any
// snapshot against the recorded log must reproduce the FULL run's observables
// — output checksum, per-domain fingerprint, admit/shed hash commitments —
// exactly, 20/20. A companion test pins the streaming recording mode:
// schedules streamed through a binary writer yield the same fingerprint as
// retained-mode runs, and the streamed file reloads to the same hash.

func checkpointTestConfig() workload.IngressServerConfig {
	cfg := ingressTestConfig(0)
	cfg.CheckpointEvery = 3
	return cfg
}

// reload round-trips a checkpoint through its serialized form, so every
// resume below exercises SaveCheckpoint/LoadCheckpoint, not the in-memory
// object.
func reload(t *testing.T, cp *qithread.Checkpoint) *qithread.Checkpoint {
	t.Helper()
	var buf bytes.Buffer
	if err := qithread.SaveCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	got, err := qithread.LoadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch() != cp.Epoch() || !bytes.Equal(got.App(), cp.App()) {
		t.Fatalf("checkpoint round-trip changed epoch %d→%d or payload", cp.Epoch(), got.Epoch())
	}
	return got
}

// resumeConfigs is every deterministic policy set TestTraceCompatibility pins
// (internal/harness, compatConfigs): the two ingressModes — under the subtest
// names they have always had — then vanilla round-robin, each semantics-aware
// policy alone and each leave-one-out set.
func resumeConfigs() map[string]qithread.Config {
	rr := func(p qithread.Policy) qithread.Config {
		return qithread.Config{Mode: qithread.RoundRobin, Policies: p}
	}
	out := map[string]qithread.Config{"rr-vanilla": rr(qithread.NoPolicies)}
	for _, cfg := range ingressModes() {
		out[cfg.Mode.String()] = cfg
	}
	for name, p := range map[string]qithread.Policy{
		"BoostBlocked": qithread.BoostBlocked, "CreateAll": qithread.CreateAll, "CSWhole": qithread.CSWhole,
		"WakeAMAP": qithread.WakeAMAP, "BranchedWake": qithread.BranchedWake,
	} {
		out["rr-only-"+name] = rr(p)
		out["rr-minus-"+name] = rr(qithread.AllPolicies &^ p)
	}
	return out
}

// TestCheckpointResumeFingerprint: under every policy set, record a live
// jittered run that checkpoints every 3 epochs, then resume 20 times —
// cycling through every checkpoint of the run, each freshly deserialized,
// against the ingress log saved and reloaded — and require every resumed run
// to finish with the full run's fingerprint, output and admission hashes.
func TestCheckpointResumeFingerprint(t *testing.T) {
	p := workload.Params{Scale: 1, InputSeed: 42}
	for name, cfg := range resumeConfigs() {
		t.Run(name, func(t *testing.T) {
			wcfg := checkpointTestConfig()
			rec := workload.RunIngressServer(wcfg, p, cfg, nil)
			if len(rec.Checkpoints) == 0 {
				t.Fatalf("run over %d epochs took no checkpoints", rec.Stats.Epochs)
			}
			var buf bytes.Buffer
			if err := rec.Log.SaveBinary(&buf); err != nil {
				t.Fatal(err)
			}
			log, err := qithread.LoadIngressLog(&buf)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				cp := reload(t, rec.Checkpoints[i%len(rec.Checkpoints)])
				res := workload.ResumeIngressServer(wcfg, p, cfg, log, cp)
				if !res.Fingerprint.Equal(rec.Fingerprint) {
					t.Fatalf("resume %d from epoch %d: fingerprint %v, full run %v",
						i, cp.Epoch(), res.Fingerprint, rec.Fingerprint)
				}
				if res.Output != rec.Output {
					t.Fatalf("resume %d from epoch %d: output %d, full run %d",
						i, cp.Epoch(), res.Output, rec.Output)
				}
				if res.AdmitHash != rec.AdmitHash || res.ShedHash != rec.ShedHash {
					t.Fatalf("resume %d from epoch %d: hashes %x/%x, full run %x/%x",
						i, cp.Epoch(), res.AdmitHash, res.ShedHash, rec.AdmitHash, rec.ShedHash)
				}
			}
		})
	}
}

// TestCheckpointResumeUnderShedding: checkpoints compose with overload — a
// run that sheds records the reject decisions inside the turn, so a resumed
// run reproduces the shed hash too.
func TestCheckpointResumeUnderShedding(t *testing.T) {
	p := workload.Params{Scale: 1, InputSeed: 42}
	cfg := qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies}
	wcfg := ingressTestConfig(4)
	wcfg.Jitter = 20 * time.Microsecond
	wcfg.MaxBatch = 2
	wcfg.CheckpointEvery = 5
	rec := workload.RunIngressServer(wcfg, p, cfg, nil)
	// As in TestIngressSheddingDeterministic: a live run that happens to keep
	// up is recorded again, a bounded number of times, until one sheds.
	for try := 0; rec.Stats.Shed == 0 && try < 20; try++ {
		rec = workload.RunIngressServer(wcfg, p, cfg, nil)
	}
	if rec.Stats.Shed == 0 {
		t.Skipf("overload did not shed on this host (stats %+v)", rec.Stats)
	}
	if len(rec.Checkpoints) == 0 {
		t.Fatalf("run over %d epochs took no checkpoints", rec.Stats.Epochs)
	}
	cp := reload(t, rec.Checkpoints[len(rec.Checkpoints)/2])
	res := workload.ResumeIngressServer(wcfg, p, cfg, rec.Log, cp)
	if res.ShedHash != rec.ShedHash || res.AdmitHash != rec.AdmitHash {
		t.Fatalf("resumed hashes %x/%x, full run %x/%x", res.AdmitHash, res.ShedHash, rec.AdmitHash, rec.ShedHash)
	}
	if !res.Fingerprint.Equal(rec.Fingerprint) || res.Output != rec.Output {
		t.Fatalf("resumed run diverged: fingerprint %v vs %v, output %d vs %d",
			res.Fingerprint, rec.Fingerprint, res.Output, rec.Output)
	}
}

// TestStreamingTraceFingerprint: replaying one recorded ingress log with the
// trace streamed through a binary writer must produce the retained-mode
// fingerprint — the running hash is maintained identically — while
// Runtime.Trace returns nil, and the streamed file must reload to events
// whose hash is exactly the fingerprint's domain hash.
func TestStreamingTraceFingerprint(t *testing.T) {
	p := workload.Params{Scale: 1, InputSeed: 42}
	wcfg := ingressTestConfig(0)
	base := qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies}
	rec := workload.RunIngressServer(wcfg, p, base, nil)

	retained := workload.RunIngressServer(wcfg, p, base, rec.Log)

	var sched bytes.Buffer
	bw, err := trace.NewBinaryWriter(&sched)
	if err != nil {
		t.Fatal(err)
	}
	streamCfg := base
	streamCfg.StreamTrace = func(domainID int) qithread.TraceSink {
		if domainID != 0 {
			return nil
		}
		return bw
	}
	streamed := workload.RunIngressServer(wcfg, p, streamCfg, rec.Log)
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}

	if !streamed.Fingerprint.Equal(retained.Fingerprint) {
		t.Fatalf("streamed fingerprint %v, retained %v", streamed.Fingerprint, retained.Fingerprint)
	}
	if streamed.Output != retained.Output {
		t.Fatalf("streamed output %d, retained %d", streamed.Output, retained.Output)
	}
	events, err := trace.Load(bytes.NewReader(sched.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("streamed schedule is empty")
	}
	if h := trace.Hash(events); h != streamed.Fingerprint.DomainHashes[0] {
		t.Fatalf("streamed file hashes to %016x, fingerprint says %016x", h, streamed.Fingerprint.DomainHashes[0])
	}

	// A streaming run retains nothing, and "nothing retained" reads as nil —
	// not as an empty slice — from Runtime.Trace and Domain.Trace alike.
	nilCfg := base
	nilCfg.Record = true
	nilCfg.StreamTrace = func(int) qithread.TraceSink { return discardSink{} }
	rt := qithread.New(nilCfg)
	workload.IngressServer(wcfg, p)(rt)
	if rt.Fingerprint().DomainHashes[0] == qithread.New(nilCfg).Fingerprint().DomainHashes[0] {
		t.Fatal("streamed run recorded no events")
	}
	if tr := rt.Trace(); tr != nil {
		t.Fatalf("Runtime.Trace of a streaming run = %d-event non-nil slice, want nil", len(tr))
	}
	if tr := rt.Domain(0).Trace(); tr != nil {
		t.Fatalf("Domain.Trace of a streaming run = %d-event non-nil slice, want nil", len(tr))
	}
}

type discardSink struct{}

func (discardSink) Append(qithread.Event) error { return nil }

// TestCheckpointRefusesActiveDomain: Checkpoint and Resume refuse while
// another domain has threads, and decide it from that domain's launch state,
// not by reading its scheduler from the caller's goroutine (a data race, and
// under Resume, whose recording is muted, an answer that depended on whether
// the other domain's roots had exited yet). Run it under -race.
func TestCheckpointRefusesActiveDomain(t *testing.T) {
	cfg := qithread.Config{Mode: qithread.RoundRobin, Record: true}
	var cp *qithread.Checkpoint
	solo := qithread.New(cfg)
	solo.Run(func(main *qithread.Thread) {
		var err error
		if cp, err = solo.Checkpoint(main, nil); err != nil {
			t.Fatal(err)
		}
	})
	resumeCfg := cfg
	resumeCfg.Resume = cp

	// A root blocked on an XPipe Recv, its domain's turn held throughout.
	for _, c := range []qithread.Config{cfg, resumeCfg} {
		rt := qithread.New(c)
		busy := rt.NewDomain("busy")
		p := rt.NewXPipe("p", rt.Domain(0), busy, 1)
		busy.Start("reader", func(r *qithread.Thread) { p.Recv(r) })
		rt.Run(func(main *qithread.Thread) {
			busy.Launch()
			if c.Resume == nil {
				if _, err := rt.Checkpoint(main, nil); err == nil || !strings.Contains(err.Error(), "(busy)") {
					t.Errorf("Checkpoint beside a blocked root: err %v, want a refusal naming the domain", err)
				}
			} else if err := rt.Resume(main); err == nil || !strings.Contains(err.Error(), "(busy)") {
				t.Errorf("Resume beside a blocked root: err %v, want a refusal naming the domain", err)
			}
			p.Close(main)
		})
	}

	// Roots that have exited: still a domain with threads of its own, every
	// time (the parent accepted it once they had gone).
	for i := 0; i < 20; i++ {
		rt := qithread.New(resumeCfg)
		done := rt.NewDomain("done")
		p := rt.NewXPipe("p", done, rt.Domain(0), 1)
		done.Start("writer", func(w *qithread.Thread) { p.Close(w) })
		rt.Run(func(main *qithread.Thread) {
			done.Launch()
			if _, ok := p.Recv(main); ok {
				t.Fatal("Recv on a closed, empty XPipe succeeded")
			}
			time.Sleep(time.Millisecond) // let the writer's domain finish exiting
			if err := rt.Resume(main); err == nil || !strings.Contains(err.Error(), "(done)") {
				t.Fatalf("run %d: Resume beside a finished domain: err %v, want a refusal naming the domain", i, err)
			}
		})
	}
}

// TestCheckpointConfigErrors: the checkpoint API rejects misconfiguration
// instead of producing undefined snapshots.
func TestCheckpointConfigErrors(t *testing.T) {
	rt := qithread.New(qithread.Config{Mode: qithread.Nondet})
	rt.Run(func(main *qithread.Thread) {
		if _, err := rt.Checkpoint(main, nil); err == nil {
			t.Error("Checkpoint in Nondet mode did not error")
		}
		if err := rt.Resume(main); err == nil {
			t.Error("Resume in Nondet mode did not error")
		}
	})

	rt2 := qithread.New(qithread.Config{Mode: qithread.RoundRobin})
	rt2.Run(func(main *qithread.Thread) {
		if _, err := rt2.Checkpoint(main, nil); err == nil {
			t.Error("Checkpoint without Record did not error")
		}
		if err := rt2.Resume(main); err == nil {
			t.Error("Resume without Config.Resume did not error")
		}
	})
}
