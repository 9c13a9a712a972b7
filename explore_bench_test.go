package qithread_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"qithread/internal/explore"
)

// BenchmarkExplore measures exploration throughput in schedules per second —
// the budget currency of `qiexplore`: how many distinct-prefix runs one core
// can record, fingerprint and classify per second. It explores the
// non-failing wakerace program so the per-iteration work is pure search:
// failures trigger minimization runs outside b.N, which would make the
// per-op figures a function of how many bugs a given iteration count
// happens to hit. Feeds BENCH_sched.json via `make bench-json`.
//
// wakerace resolves ~15 decisions a run, so those rows cannot see what the
// search engine costs per decision. dpor-controlplane-race is the row that
// can: one op is one fresh in-memory session searching the seeded
// control-plane race (~140 decisions a run, a frontier of ~140k entries) for
// 2,000 schedules with 2 workers, minimizations included; B/op and allocs/op
// are per session, live-MB is the heap the finished session still holds.
func BenchmarkExplore(b *testing.B) {
	b.Run("dpor-controlplane-race", benchExploreControlPlane)
	p := explore.Lookup("wakerace")
	if p == nil {
		b.Fatal("wakerace program not registered")
	}
	for _, strategy := range []string{"dpor", "pct"} {
		b.Run(strategy, func(b *testing.B) {
			s, err := explore.NewSession(p, "", 10*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			switch strategy {
			case "dpor":
				err = s.ExploreDPOR(b.N, 0)
			case "pct":
				err = s.ExplorePCT(b.N, 3, 1)
			}
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if s.Runs() < b.N {
				b.Fatalf("explored %d schedules, want >= %d", s.Runs(), b.N)
			}
			b.ReportMetric(float64(s.Runs())/b.Elapsed().Seconds(), "schedules/sec")
		})
	}
}

func benchExploreControlPlane(b *testing.B) {
	const budget = 2000
	p := explore.Lookup("controlplane-race")
	if p == nil {
		b.Fatal("controlplane-race program not registered")
	}
	var live, frontier float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := explore.NewSession(p, "", explore.DefaultWatchdog)
		if err != nil {
			b.Fatal(err)
		}
		s.Workers = 2
		if err := s.ExploreDPOR(budget, 0); err != nil {
			b.Fatal(err)
		}
		if s.Runs() != budget || s.Failures() == 0 {
			b.Fatalf("explored %d schedules with %d failures, want %d and the seeded race found", s.Runs(), s.Failures(), budget)
		}
		b.StopTimer()
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		live += float64(m.HeapAlloc) / 1e6
		frontier += float64(s.FrontierLen())
		runtime.KeepAlive(s)
		b.StartTimer()
	}
	b.ReportMetric(float64(budget*b.N)/b.Elapsed().Seconds(), "schedules/sec")
	b.ReportMetric(live/float64(b.N), "live-MB")
	b.ReportMetric(frontier/float64(b.N), "frontier-entries")
}

// BenchmarkExploreParallel measures the worker pool's scaling: the same DPOR
// search at 1, 2 and 4 workers. Every run executes in its own isolated
// Runtime, so between-run work is embarrassingly parallel; the frontier, the
// seen set and the record path, all under the session mutex, are the only
// serialization. On a multi-core host workers=4 should approach 4x the
// workers=1 schedules/sec; on a single-CPU host (the CI runner) the curve is
// honestly flat — EXPERIMENTS.md E21 records both. Feeds BENCH_sched.json via
// `make bench-json`.
func BenchmarkExploreParallel(b *testing.B) {
	p := explore.Lookup("wakerace")
	if p == nil {
		b.Fatal("wakerace program not registered")
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s, err := explore.NewSession(p, "", 10*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			s.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			err = s.ExploreDPOR(b.N, 0)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if s.Runs() < b.N {
				b.Fatalf("explored %d schedules, want >= %d", s.Runs(), b.N)
			}
			b.ReportMetric(float64(s.Runs())/b.Elapsed().Seconds(), "schedules/sec")
		})
	}
}
