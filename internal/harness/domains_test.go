package harness

import (
	"runtime"
	"testing"
	"time"

	"qithread"
	"qithread/internal/workload"
)

// TestDomainsDeterministic runs the sharded server and map-reduce engines
// repeatedly at different GOMAXPROCS and asserts that every run produces the
// identical partitioned-execution fingerprint — per-domain schedule hashes
// and the cross-domain delivery hash — and the output checksum.
func TestDomainsDeterministic(t *testing.T) {
	params := workload.Params{Scale: 0.5, InputSeed: 7}
	for _, w := range domainWorkloads() {
		for _, nd := range []int{2, 4} {
			app := w.build(nd, 0, params)
			var refFP qithread.Fingerprint
			var refOut uint64
			first := true
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				for run := 0; run < 3; run++ {
					rt := qithread.New(qithread.Config{
						Mode: qithread.RoundRobin, Policies: qithread.AllPolicies, Record: true,
					})
					out := app(rt)
					fp := rt.Fingerprint()
					if first {
						refFP, refOut = fp, out
						first = false
						if len(fp.DomainHashes) != nd+1 {
							t.Errorf("%s domains=%d: fingerprint covers %d domains, want %d", w.name, nd, len(fp.DomainHashes), nd+1)
						}
						continue
					}
					if out != refOut {
						t.Errorf("%s domains=%d procs=%d run=%d: output %d, want %d", w.name, nd, procs, run, out, refOut)
					}
					if !fp.Equal(refFP) {
						t.Errorf("%s domains=%d procs=%d run=%d: fingerprint %v, want %v", w.name, nd, procs, run, fp, refFP)
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
// fingerprint and output. The two configurations have
// different schedules (fingerprints are per configuration), but each must be
// perfectly repeatable: batching must not leak the peer domain's real-time
// progress into the batch boundaries.
func TestDomainsBatchedDeterministic(t *testing.T) {
	params := workload.Params{Scale: 0.5, InputSeed: 7}
	for _, w := range domainWorkloads() {
		for _, batch := range []int{1, 8} {
			app := w.build(3, batch, params)
			var refFP qithread.Fingerprint
			var refOut uint64
			for run := 0; run < 20; run++ {
				rt := qithread.New(qithread.Config{
					Mode: qithread.RoundRobin, Policies: qithread.AllPolicies, Record: true,
				})
				out := app(rt)
				fp := rt.Fingerprint()
				if run == 0 {
					refFP, refOut = fp, out
					continue
				}
				if out != refOut {
					t.Errorf("%s batch=%d run=%d: output %d, want %d", w.name, batch, run, out, refOut)
				}
				if !fp.Equal(refFP) {
					t.Errorf("%s batch=%d run=%d: fingerprint %v, want %v", w.name, batch, run, fp, refFP)
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
	for _, w := range domainWorkloads() {
		var ref uint64
		for i, batch := range []int{0, 1, 2, 8} {
			rt := qithread.New(qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies})
			out := w.build(4, batch, params)(rt)
			if i == 0 {
				ref = out
			} else if out != ref {
				t.Errorf("%s: output %d at batch %d, want %d (batch size must not change the answer)", w.name, out, batch, ref)
			}
		}
	}
}

// TestDomainsOutputIndependent asserts the workload checksum is a pure
// function of the input: the same answer at every domain count.
func TestDomainsOutputIndependent(t *testing.T) {
	params := workload.Params{Scale: 1, InputSeed: 11}
	for _, w := range domainWorkloads() {
		var ref uint64
		for i, nd := range []int{1, 2, 4, 8} {
			rt := qithread.New(qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies})
			out := w.build(nd, 0, params)(rt)
			if i == 0 {
				ref = out
			} else if out != ref {
				t.Errorf("%s: output %d at %d domains, want %d (domain count must not change the answer)", w.name, out, nd, ref)
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
	params := workload.Params{Scale: 1, InputSeed: 3}
	for _, w := range domainWorkloads() {
		var last int64
		counts := []int{1, 2, 4}
		for i, nd := range counts {
			rt := qithread.New(QiThread().Cfg)
			w.build(nd, 0, params)(rt)
			makespan := rt.VirtualMakespan()
			if i > 0 && makespan >= last {
				t.Errorf("%s: makespan %v at %d domains, not better than %v at %d domains",
					w.name, time.Duration(makespan), nd, time.Duration(last), counts[i-1])
			}
			last = makespan
		}
	}
}
