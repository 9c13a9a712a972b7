package explore

import (
	"testing"

	"qithread/internal/policy"
)

// BenchmarkExploreRun measures what one explored schedule costs the search.
// In run, one untraced runPath of controlplane-race on the frontier entry
// that forces its default schedule, as the DPOR pool executes it (the B/op
// TestExploredRunAllocBudget holds). In expand, one expandLocked of a
// 150-decision log into its 300 flips, then the 300 pops that drain them, so
// the frontier stays bounded. Its B/op is the shared log header, the span
// list and a whole frontier chunk: the pops drain the queue, which drops its
// last chunk, and the next expand allocates one again.
func BenchmarkExploreRun(b *testing.B) {
	b.Run("run", func(b *testing.B) {
		p := Lookup("controlplane-race")
		base := RunForced(p, nil, testWatchdog)
		entry := prefixFlip(base.log)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := runPath(p, entry, entry.logLen(), testWatchdog, false); res.Outcome != OutcomeOK {
				b.Fatalf("run %d: %s, want ok", i, res.Outcome)
			}
		}
	})
	b.Run("expand", func(b *testing.B) {
		res := Result{log: make([]decision, 150)}
		for i := range res.log {
			res.log[i] = decision{kind: policy.ChooseTurn, n: 3, index: int32(i % 3)}
		}
		s, err := NewSession(Lookup("buggy"), "", testWatchdog)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			kept, _ := s.expandLocked(0, &res, 0)
			for ; kept > 0; kept-- {
				s.frontier.pop()
			}
		}
	})
}
