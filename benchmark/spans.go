package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the recorder was created. Parent is the id of the span
// that caused this one (0 for a trial root); Trial is the identifier every
// span of one trial shares.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trial  int    `json:"trial"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced run shares the drivers' code: every
// method is a cheap no-op on nil.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, parent, trial int) int {
	if r == nil {
		return 0
	}
	start := r.now()
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trial: trial, Name: name, Start: start})
	r.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	end := r.now()
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// add records a span whose interval the caller already measured; hot call
// sites use it so the recorder's lock stays outside the timed interval.
func (r *recorder) add(name string, parent, trial int, start, end int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Trial: trial, Name: name, Start: start, End: end})
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanTotals aggregates a span set by name.
type spanTotals struct {
	count map[string]int
	dur   map[string]int64 // Σ (end − start)
	self  map[string]int64 // Σ self time
}

// checkSpans verifies the tree is well formed: every span closed after it
// started, every parent present and of the same trial.
func checkSpans(spans []span) error {
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 1 || s.Parent > len(spans) {
			return fmt.Errorf("span %d (%s) has orphan parent %d", s.ID, s.Name, s.Parent)
		}
		if p := spans[s.Parent-1]; p.Trial != s.Trial {
			return fmt.Errorf("span %d (%s) of trial %d has parent %d of trial %d", s.ID, s.Name, s.Trial, p.ID, p.Trial)
		}
	}
	return nil
}

// totals computes per-name counts, durations and self times. A span's self
// time is its duration minus the part of its interval that its child spans
// cover; children of concurrent goroutines may overlap, so coverage is the
// union of the child intervals clipped to the parent.
func totals(spans []span) spanTotals {
	t := spanTotals{count: map[string]int{}, dur: map[string]int64{}, self: map[string]int64{}}
	kids := make(map[int][]int, len(spans)/4)
	for i, s := range spans {
		t.count[s.Name]++
		t.dur[s.Name] += s.End - s.Start
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for i, s := range spans {
		t.self[s.Name] += s.End - s.Start - covered(s, kids[i+1], spans)
	}
	return t
}

// covered returns how much of parent's interval the given children cover.
func covered(parent span, kids []int, spans []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
	var sum int64
	hi := parent.Start
	for _, k := range kids {
		lo, end := spans[k].Start, spans[k].End
		if lo < hi {
			lo = hi
		}
		if end > parent.End {
			end = parent.End
		}
		if end > lo {
			sum += end - lo
			hi = end
		}
	}
	return sum
}
