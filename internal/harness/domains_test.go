package harness

import (
	"reflect"
	"runtime"
	"testing"

	"qithread"
	"qithread/internal/workload"
)

// TestDomainsDeterministic runs the sharded server and map-reduce engines
// repeatedly at different GOMAXPROCS and asserts that every run produces the
// identical partitioned-execution fingerprint: per-domain schedule hashes,
// the full cross-domain delivery log, and the output checksum.
func TestDomainsDeterministic(t *testing.T) {
	params := workload.Params{Scale: 0.5, InputSeed: 7}
	for _, w := range DomainWorkloads() {
		for _, nd := range []int{2, 4} {
			app := w.Build(nd, 0, params)
			var refFP qithread.Fingerprint
			var refLog []qithread.Delivery
			var refOut uint64
			first := true
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				for run := 0; run < 3; run++ {
					rt := qithread.New(qithread.Config{
						Mode: qithread.RoundRobin, Policies: qithread.AllPolicies, Record: true,
						RetainDeliveryLog: true,
					})
					out := app(rt)
					fp := rt.Fingerprint()
					log := rt.DeliveryLog()
					if first {
						refFP, refLog, refOut = fp, log, out
						first = false
						if len(refLog) != nd {
							t.Errorf("%s domains=%d: %d deliveries, want %d (one per shard)", w.Name, nd, len(refLog), nd)
						}
						if len(fp.DomainHashes) != nd+1 {
							t.Errorf("%s domains=%d: fingerprint covers %d domains, want %d", w.Name, nd, len(fp.DomainHashes), nd+1)
						}
						continue
					}
					if out != refOut {
						t.Errorf("%s domains=%d procs=%d run=%d: output %d, want %d", w.Name, nd, procs, run, out, refOut)
					}
					if !fp.Equal(refFP) {
						t.Errorf("%s domains=%d procs=%d run=%d: fingerprint %v, want %v", w.Name, nd, procs, run, fp, refFP)
					}
					if !reflect.DeepEqual(log, refLog) {
						t.Errorf("%s domains=%d procs=%d run=%d: delivery log diverged:\n got %v\nwant %v", w.Name, nd, procs, run, log, refLog)
					}
				}
				runtime.GOMAXPROCS(prev)
			}
		}
	}
}

// TestDomainsBatchedDeterministic runs the streaming (batched) result shape
// repeatedly — 20 runs each for the batch-1 configuration (capacity-1 pipes,
// one boundary slot per message) and a wide-batch configuration (up to 8
// messages per slot) — and asserts that every run produces the identical
// fingerprint, delivery log, and output. The two configurations have
// different schedules (fingerprints are per configuration), but each must be
// perfectly repeatable: batching must not leak the peer domain's real-time
// progress into the batch boundaries.
func TestDomainsBatchedDeterministic(t *testing.T) {
	params := workload.Params{Scale: 0.5, InputSeed: 7}
	for _, w := range DomainWorkloads() {
		for _, batch := range []int{1, 8} {
			app := w.Build(3, batch, params)
			var refFP qithread.Fingerprint
			var refLog []qithread.Delivery
			var refOut uint64
			for run := 0; run < 20; run++ {
				rt := qithread.New(qithread.Config{
					Mode: qithread.RoundRobin, Policies: qithread.AllPolicies, Record: true,
					RetainDeliveryLog: true,
				})
				out := app(rt)
				fp := rt.Fingerprint()
				log := rt.DeliveryLog()
				if run == 0 {
					refFP, refLog, refOut = fp, log, out
					if len(refLog) == 0 {
						t.Errorf("%s batch=%d: empty delivery log; streaming shape should ship per-item results", w.Name, batch)
					}
					continue
				}
				if out != refOut {
					t.Errorf("%s batch=%d run=%d: output %d, want %d", w.Name, batch, run, out, refOut)
				}
				if !fp.Equal(refFP) {
					t.Errorf("%s batch=%d run=%d: fingerprint %v, want %v", w.Name, batch, run, fp, refFP)
				}
				if !reflect.DeepEqual(log, refLog) {
					t.Errorf("%s batch=%d run=%d: delivery log diverged", w.Name, batch, run)
				}
			}
		}
	}
}

// TestDomainsBatchOutputIndependent asserts the result-return shape never
// changes the answer: aggregate (batch 0) and every streaming batch size
// compute the same checksum.
func TestDomainsBatchOutputIndependent(t *testing.T) {
	params := workload.Params{Scale: 0.5, InputSeed: 13}
	for _, w := range DomainWorkloads() {
		var ref uint64
		for i, batch := range []int{0, 1, 2, 8} {
			rt := qithread.New(qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies})
			out := w.Build(4, batch, params)(rt)
			if i == 0 {
				ref = out
			} else if out != ref {
				t.Errorf("%s: output %d at batch %d, want %d (batch size must not change the answer)", w.Name, out, batch, ref)
			}
		}
	}
}

// TestDomainsOutputIndependent asserts the workload checksum is a pure
// function of the input: the same answer at every domain count.
func TestDomainsOutputIndependent(t *testing.T) {
	params := workload.Params{Scale: 1, InputSeed: 11}
	for _, w := range DomainWorkloads() {
		var ref uint64
		for i, nd := range []int{1, 2, 4, 8} {
			rt := qithread.New(qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies})
			out := w.Build(nd, 0, params)(rt)
			if i == 0 {
				ref = out
			} else if out != ref {
				t.Errorf("%s: output %d at %d domains, want %d (domain count must not change the answer)", w.Name, out, nd, ref)
			}
		}
	}
}

// TestDomainsMakespanMonotonic asserts the virtual-time payoff of the
// partition: sharding the server across more domains strictly shortens the
// virtual makespan, because each domain serializes only its own
// synchronization instead of the whole process sharing one turn chain.
// Virtual makespans are deterministic, so strict comparison is safe.
func TestDomainsMakespanMonotonic(t *testing.T) {
	r := &Runner{Params: workload.Params{Scale: 1, InputSeed: 3}}
	for _, w := range DomainWorkloads() {
		var last DomainPoint
		for i, nd := range []int{1, 2, 4} {
			pt := r.MeasureDomains(w, nd, 0, QiThread())
			if i > 0 && pt.Makespan >= last.Makespan {
				t.Errorf("%s: makespan %v at %d domains, not better than %v at %d domains",
					w.Name, pt.Makespan, nd, last.Makespan, last.Domains)
			}
			last = pt
		}
	}
}
