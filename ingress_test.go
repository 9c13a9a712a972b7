package qithread_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"qithread"
	"qithread/internal/ingress"
	"qithread/internal/workload"
)

// These are the tentpole's acceptance tests: an externally-driven run —
// free-running sources with genuinely randomized timing — is recorded once,
// then its ingress log is replayed many times, and every observable of every
// replay (output checksum, per-domain schedule fingerprint, admitted/shed
// hash commitments) must equal the live run's. A second test overloads a
// deliberately tiny admission queue and requires the REJECT set to replay
// identically too: shedding decisions are made inside the turn, so they are
// part of the deterministic execution, not a real-time race.

func ingressTestConfig(queueCap int) workload.IngressServerConfig {
	return workload.IngressServerConfig{
		Sources: 3, Events: 90, Workers: 3,
		ParseWork: 60, StateWork: 20,
		MaxBatch: 8, QueueCap: queueCap,
		Jitter: 150 * time.Microsecond, // randomized arrival timing, on purpose
	}
}

func ingressModes() []qithread.Config {
	return []qithread.Config{
		{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies},
		{Mode: qithread.LogicalClock},
	}
}

// TestIngressRecordReplayRoundTrip: record a live jittered run, replay the
// log 20x, require identical Fingerprint() (and every other observable) on
// every replay.
func TestIngressRecordReplayRoundTrip(t *testing.T) {
	p := workload.Params{Scale: 1, InputSeed: 42}
	for _, cfg := range ingressModes() {
		t.Run(cfg.Mode.String(), func(t *testing.T) {
			wcfg := ingressTestConfig(0)
			rec := workload.RunIngressServer(wcfg, p, cfg, nil)
			if rec.Stats.Admitted == 0 {
				t.Fatal("live run admitted nothing")
			}
			if rec.Stats.Shed != 0 {
				t.Fatalf("unexpected shedding in the un-overloaded run: %+v", rec.Stats)
			}
			// The log must survive its own serialization: replay a
			// saved-and-reloaded copy, not the in-memory object.
			var buf bytes.Buffer
			if err := rec.Log.SaveBinary(&buf); err != nil {
				t.Fatal(err)
			}
			log, err := qithread.LoadIngressLog(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				rep := workload.RunIngressServer(wcfg, p, cfg, log)
				if !rep.Fingerprint.Equal(rec.Fingerprint) {
					t.Fatalf("replay %d fingerprint %v, recorded %v", i, rep.Fingerprint, rec.Fingerprint)
				}
				if rep.Output != rec.Output {
					t.Fatalf("replay %d output %d, recorded %d", i, rep.Output, rec.Output)
				}
				if rep.AdmitHash != rec.AdmitHash || rep.ShedHash != rec.ShedHash {
					t.Fatalf("replay %d hashes %x/%x, recorded %x/%x",
						i, rep.AdmitHash, rep.ShedHash, rec.AdmitHash, rec.ShedHash)
				}
				if rep.Stats.Admitted != rec.Stats.Admitted || rep.Stats.Epochs != rec.Stats.Epochs {
					t.Fatalf("replay %d admitted %d over %d epochs, recorded %d over %d",
						i, rep.Stats.Admitted, rep.Stats.Epochs, rec.Stats.Admitted, rec.Stats.Epochs)
				}
			}
		})
	}
}

// TestIngressSheddingDeterministic: overload a tight admission queue so a
// substantial fraction of the input is shed, then require the reject set
// (count and hash commitment) to be identical on 20 replays.
func TestIngressSheddingDeterministic(t *testing.T) {
	p := workload.Params{Scale: 1, InputSeed: 42}
	for _, cfg := range ingressModes() {
		t.Run(cfg.Mode.String(), func(t *testing.T) {
			wcfg := ingressTestConfig(4)
			// Arrive hot: sources push unpaced to overflow the queue. A hosted
			// server drains paced arrivals too fast to shed reliably.
			wcfg.Jitter = 0
			wcfg.MaxBatch = 2
			rec := workload.RunIngressServer(wcfg, p, cfg, nil)
			// Whether the hot arrivals outrun a live server is up to the host
			// (a 90-event run that starts its workers quickly can keep up);
			// what is under test is the replay of a recording that did shed,
			// so record again, a bounded number of times, until one does.
			for try := 0; rec.Stats.Shed == 0 && try < 20; try++ {
				rec = workload.RunIngressServer(wcfg, p, cfg, nil)
			}
			if rec.Stats.Shed == 0 {
				t.Skipf("overload did not shed on this host (stats %+v); shedding determinism is covered by internal/ingress on a fixed log", rec.Stats)
			}
			for i := 0; i < 20; i++ {
				rep := workload.RunIngressServer(wcfg, p, cfg, rec.Log)
				if rep.Stats.Shed != rec.Stats.Shed || rep.ShedHash != rec.ShedHash {
					t.Fatalf("replay %d shed %d (hash %x), recorded %d (hash %x): reject set not deterministic",
						i, rep.Stats.Shed, rep.ShedHash, rec.Stats.Shed, rec.ShedHash)
				}
				if rep.AdmitHash != rec.AdmitHash || !rep.Fingerprint.Equal(rec.Fingerprint) {
					t.Fatalf("replay %d diverged beyond the shed set", i)
				}
			}
		})
	}
}

// TestIngressNondetSmoke: in Nondet mode the gateway machinery still works —
// collection, admission, logging — without any turn; the output checksum is
// order-independent, so it still matches a deterministic run's.
func TestIngressNondetSmoke(t *testing.T) {
	p := workload.Params{Scale: 1, InputSeed: 42}
	wcfg := ingressTestConfig(0)
	nd := workload.RunIngressServer(wcfg, p, qithread.Config{Mode: qithread.Nondet}, nil)
	det := workload.RunIngressServer(wcfg, p, qithread.Config{Mode: qithread.RoundRobin}, nil)
	if nd.Stats.Admitted != det.Stats.Admitted {
		t.Fatalf("admitted %d vs %d", nd.Stats.Admitted, det.Stats.Admitted)
	}
	if nd.Output != det.Output {
		t.Fatalf("output %d vs %d: the checksum should be a pure function of the admitted set", nd.Output, det.Output)
	}
	if nd.Log.Events() == 0 {
		t.Fatal("nondet run recorded no ingress log")
	}
}

// TestGatewaySinkWithReplayPanics: a replaying gateway records nothing, so
// NewGateway refuses a Sink beside Replay by name, before it registers the
// gateway, instead of leaving the sink an empty log.
func TestGatewaySinkWithReplayPanics(t *testing.T) {
	rt := qithread.New(qithread.Config{Mode: qithread.RoundRobin})
	log := &qithread.IngressLog{Batches: []ingress.Batch{{Epoch: 1, Events: []qithread.IngressEvent{{Data: []byte("x")}}}}}
	var sink bytes.Buffer
	bw, err := ingress.NewBinaryLogWriter(&sink)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "Sink") || !strings.Contains(msg, "Replay") {
			t.Fatalf("NewGateway with Sink and Replay: panic %q, want one naming both fields", msg)
		}
		if n := len(rt.GatewayStats()); n != 0 {
			t.Errorf("the refused gateway was registered (%d gateways)", n)
		}
	}()
	rt.NewGateway("gw", rt.Domain(0), qithread.GatewayConfig{Replay: log, Sink: bw})
}

// TestGatewayCrossDomainPanics: admitting from a thread of another domain is
// a deterministic panic, like any cross-domain object use.
func TestGatewayCrossDomainPanics(t *testing.T) {
	rt := qithread.New(qithread.Config{Mode: qithread.RoundRobin})
	d1 := rt.NewDomain("other")
	gw := d1.NewGateway("gw", qithread.GatewayConfig{})
	rt.Run(func(main *qithread.Thread) {
		defer func() {
			if recover() == nil {
				t.Error("cross-domain Admit did not panic")
			}
		}()
		buf := make([]qithread.IngressEvent, 1)
		gw.Admit(main, buf) // main is in domain 0, the gateway in d1
	})
}
