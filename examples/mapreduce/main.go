// mapreduce: a Phoenix-style word-count under deterministic scheduling.
//
// This example writes an actual map-reduce computation (not a synthetic
// skeleton) against the qithread API: map tasks count word lengths over
// shards of a corpus, reduce tasks merge per-length counts. It demonstrates
// that a real data-parallel program runs unmodified under every scheduling
// mode with identical results, and compares the deterministic modes' virtual
// makespans with the ideal parallel run that models native threads (Nondet
// runs natively and keeps no virtual time).
package main

import (
	"fmt"
	"strings"

	"qithread"
)

const corpus = `deterministic multithreading systems eliminate nondeterminism
from multithreaded programs by enforcing the same schedule for the same input
synchronization determinism is more fundamental than existing research
suggests and semantics aware scheduling policies make it fast without hints`

func wordCount(rt *qithread.Runtime, workers int) map[int]int {
	words := strings.Fields(corpus)
	counts := make(map[int]int) // word length -> occurrences
	rt.Run(func(main *qithread.Thread) {
		m := rt.NewMutex(main, "counts")
		var kids []*qithread.Thread
		for i := 0; i < workers; i++ {
			i := i
			if i+1 < workers {
				main.KeepTurn()
			}
			kids = append(kids, main.Create(fmt.Sprintf("mapper%d", i), func(w *qithread.Thread) {
				lo := i * len(words) / workers
				hi := (i + 1) * len(words) / workers
				local := make(map[int]int)
				for _, word := range words[lo:hi] {
					w.Work(20) // tokenize/hash cost
					local[len(word)]++
				}
				m.Lock(w)
				for k, v := range local {
					counts[k] += v
				}
				m.Unlock(w)
			}))
		}
		for _, k := range kids {
			main.Join(k)
		}
	})
	return counts
}

func main() {
	const workers = 4
	configs := []struct {
		name string
		cfg  qithread.Config
	}{
		{"nondeterministic (Go native)", qithread.Config{Mode: qithread.Nondet}},
		{"ideal parallel (native model)", qithread.Config{Mode: qithread.VirtualParallel}},
		{"vanilla round robin", qithread.Config{Mode: qithread.RoundRobin}},
		{"qithread all policies", qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies}},
		{"logical clock", qithread.Config{Mode: qithread.LogicalClock}},
	}
	var ref map[int]int
	for _, c := range configs {
		rt := qithread.New(c.cfg)
		counts := wordCount(rt, workers)
		if ref == nil {
			ref = counts
		}
		same := len(counts) == len(ref)
		for k, v := range ref {
			if counts[k] != v {
				same = false
			}
		}
		makespan := "no virtual time,"
		if c.cfg.Mode.Deterministic() {
			makespan = fmt.Sprintf("virtual makespan %6d units,", rt.VirtualMakespan())
		}
		fmt.Printf("%-32s %-30s result matches: %v\n", c.name, makespan, same)
	}
	fmt.Println()
	fmt.Println("word-length histogram:")
	for l := 1; l <= 16; l++ {
		if n, ok := ref[l]; ok {
			fmt.Printf("  %2d: %s (%d)\n", l, strings.Repeat("#", n), n)
		}
	}
}
