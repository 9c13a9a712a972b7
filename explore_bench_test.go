package qithread_test

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"qithread"
	"qithread/internal/explore"
)

// BenchmarkExplore measures what no benchmark/ probe does: PCT throughput,
// and the memory a long DPOR search holds.
//
// pct explores the non-failing wakerace program, so the per-iteration work is
// pure search: failures trigger minimization runs outside b.N, which would
// make the per-op figures a function of how many bugs a given iteration count
// happens to hit.
//
// dpor-controlplane-race is one fresh in-memory session searching the seeded
// control-plane race (~140 decisions a run, a frontier of ~140k entries) for
// 2,000 schedules with 2 workers, minimizations included; B/op and allocs/op
// are per session, live-MB is the heap the finished session still holds, and
// runs/schedule is the program executions per explored schedule, the
// minimizations' included.
func BenchmarkExplore(b *testing.B) {
	b.Run("dpor-controlplane-race", benchExploreControlPlane)
	b.Run("pct", func(b *testing.B) {
		s, err := explore.NewSession(explore.Lookup("wakerace"), "", 10*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		err = s.ExplorePCT(b.N, 3, 1)
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

func benchExploreControlPlane(b *testing.B) {
	const budget = 2000
	p := explore.Lookup("controlplane-race")
	if p == nil {
		b.Fatal("controlplane-race program not registered")
	}
	var runs atomic.Int64
	counted := *p
	counted.Run = func(rt *qithread.Runtime) uint64 {
		runs.Add(1)
		return p.Run(rt)
	}
	var live, frontier float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := explore.NewSession(&counted, "", explore.DefaultWatchdog)
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
	b.ReportMetric(float64(runs.Load())/float64(budget*b.N), "runs/schedule")
	b.ReportMetric(live/float64(b.N), "live-MB")
	b.ReportMetric(frontier/float64(b.N), "frontier-entries")
}

// BenchmarkExploreParallel measures the worker pool's scaling: the same DPOR
// search at 1, 2 and 4 workers, compared inside one binary. Every run executes
// in its own isolated Runtime, so between-run work is embarrassingly parallel;
// the frontier, the seen set and the record path, all under the session mutex,
// are the only serialization. On a multi-core host workers=4 should approach
// 4x the workers=1 schedules/sec; on a single-CPU host (the CI runner) the
// curve is honestly flat — EXPERIMENTS.md E21 records both.
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
