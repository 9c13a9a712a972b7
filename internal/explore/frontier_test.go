package explore

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"qithread/internal/core"
)

// materialize spells out the prefix a flip stands for, the way the frontier
// used to store it: the reference the structure-sharing form is checked
// against.
func materialize(f flip) []core.Choice {
	out := make([]core.Choice, f.depth())
	for k := range out {
		out[k] = (*f.log)[k]
		out[k].Index = f.index(k)
	}
	return out
}

// quickPrefix maps arbitrary generated values onto a prefix the explorer
// could have produced: small kinds, non-negative int32-range numbers.
func quickPrefix(raw [][4]uint32) []core.Choice {
	prefix := make([]core.Choice, len(raw))
	for i, r := range raw {
		prefix[i] = core.Choice{Kind: core.ChoiceKind(r[0] % 3), N: int(r[1] >> 1), Def: int(r[2] >> 1), Index: int(r[3] >> 1)}
	}
	return prefix
}

// TestPrefixRoundTripQuick: formatPrefix and parsePrefix are inverses, and a
// flip stands for its log cut at the flipped decision.
func TestPrefixRoundTripQuick(t *testing.T) {
	prop := func(raw [][4]uint32, alt uint16) bool {
		prefix := quickPrefix(raw)
		line := formatPrefix(prefix)
		back, err := parsePrefix(line)
		if err != nil || len(back) != len(prefix) || (len(prefix) > 0 && !reflect.DeepEqual(back, prefix)) {
			t.Logf("parsePrefix(%q) = %v, %v; want %v", line, back, err, prefix)
			return false
		}
		if got := formatPrefix(materialize(prefixFlip(prefix))); got != line {
			t.Logf("prefixFlip line %q, want %q", got, line)
			return false
		}
		// A flip anywhere along a shared log is the log cut there with the
		// alternative swapped in.
		for pos := range prefix {
			f := flip{log: &prefix, pos: int32(pos), alt: int32(alt)}
			want := append([]core.Choice(nil), prefix[:pos+1]...)
			want[pos].Index = int(alt)
			if !reflect.DeepEqual(materialize(f), want) {
				t.Logf("flip at %d stands for %v, want %v", pos, materialize(f), want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzParsePrefix: the decision-log loader must reject or round-trip any
// input — never panic, never accept a line it would write back differently
// (an accepted log is re-emitted by the next save, so a lossy parse would
// silently rewrite the frontier).
func FuzzParsePrefix(f *testing.F) {
	for _, seed := range []string{
		"-", "0:2:0:1", "0:3:0:2 1:2:1:0 2:4:3:0", "", " ", "turn:not-a-number", "0:2:0", "0:2:0:1:7",
		"0:2:0:1x", "256:2:0:1", "-1:2:0:1", "0:2:0:4294967296", "0:2:0:-3", "0:2:0:+1", "0:2:0:1 ", "0:2:0:1\t0:2:0:0", "0:1_0:0:0", "::::",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		prefix, err := parsePrefix(line)
		if err != nil {
			return
		}
		again, err := parsePrefix(formatPrefix(prefix))
		if err != nil || len(again) != len(prefix) || (len(prefix) > 0 && !reflect.DeepEqual(again, prefix)) {
			t.Fatalf("parsePrefix(%q) = %v, but its canonical line %q parses to %v, %v", line, prefix, formatPrefix(prefix), again, err)
		}
		fl := prefixFlip(prefix)
		if got := formatPrefix(materialize(fl)); got != formatPrefix(prefix) {
			t.Fatalf("parsePrefix(%q): flip renders %q, prefix renders %q", line, got, formatPrefix(prefix))
		}
	})
}

// TestFlipQueueFIFO: order survives chunk boundaries and interleaved
// push/pop, and popped slots and drained chunks are let go.
func TestFlipQueueFIFO(t *testing.T) {
	var q flipQueue
	next, want := int32(0), int32(0)
	push := func(n int) {
		for i := 0; i < n; i++ {
			q.push(flip{pos: next})
			next++
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			if got := q.pop().pos; got != want {
				t.Fatalf("pop %d, want %d", got, want)
			}
			want++
		}
	}
	push(3)
	pop(3) // drains a partly filled chunk
	push(2*flipChunk + 5)
	pop(flipChunk + 1)
	push(7)
	if q.len() != int(next-want) {
		t.Fatalf("len %d, want %d", q.len(), next-want)
	}
	seen := want
	q.each(func(f flip) {
		if f.pos != seen {
			t.Fatalf("each visited %d, want %d", f.pos, seen)
		}
		seen++
	})
	if seen != next {
		t.Fatalf("each stopped at %d, want %d", seen, next)
	}
	if len(q.chunks) > 2 {
		t.Errorf("%d chunks hold %d entries; drained chunks were not dropped", len(q.chunks), q.len())
	}
	pop(q.len())
	if q.len() != 0 || len(q.chunks) != 0 {
		t.Errorf("drained queue keeps len=%d chunks=%d", q.len(), len(q.chunks))
	}
}

// TestExpandAllocatesPerRunNotPerFlip: branching a 150-decision run queues
// ~300 flips but allocates a constant handful of objects (the shared log
// header, a frontier chunk) — the materialised frontier allocated one prefix
// copy per flip.
func TestExpandAllocatesPerRunNotPerFlip(t *testing.T) {
	res := Result{Choices: make([]core.Choice, 150)}
	for i := range res.Choices {
		res.Choices[i] = core.Choice{Kind: core.ChooseTurn, N: 3, Def: 0, Index: i % 3}
	}
	s, err := NewSession(Lookup("buggy"), "", testWatchdog)
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := s.expandLocked(0, &res, 0)
	if kept != 300 || s.FrontierLen() != 300 {
		t.Fatalf("expanded into %d flips (frontier %d), want 300", kept, s.FrontierLen())
	}
	allocs := testing.AllocsPerRun(50, func() { s.expandLocked(0, &res, 0) })
	if allocs > 3 {
		t.Errorf("expanding a 150-decision run allocates %.1f objects, want O(1) (<= 3), not one per flip", allocs)
	}
	f := s.frontier.pop()
	if got, want := formatPrefix(materialize(f)), "0:3:0:1"; got != want {
		t.Errorf("first flip %q, want %q", got, want)
	}
}

// liveHeap is the heap in use after a collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestFrontierRetention: a search of controlplane-race must end with a small
// live heap, and so must the session that resumes it. In memory, to the
// benchmark's budget, the frontier holds ~119k entries of ~70 decisions' depth
// on average; materialised, and with popped entries pinned behind a resliced
// backing array, that was 267 MB. On disk it was materialised until PR 24: a
// budget-1,000 search wrote 36.7 MB of frontier.txt, one whole prefix per
// entry, and resuming it held +159 MB against the +5.8 MB of the session that
// wrote it, every entry read back with a log of its own. Both subtests count
// the heap a session adds, not the process's: other tests of this package
// leave frozen runs behind on purpose, and at -cpu 1,2,4 they pile up.
func TestFrontierRetention(t *testing.T) {
	if testing.Short() {
		t.Skip("explores 2,750 schedules")
	}
	t.Run("memory", func(t *testing.T) {
		before := liveHeap()
		s, err := NewSession(Lookup("controlplane-race"), "", DefaultWatchdog)
		if err != nil {
			t.Fatal(err)
		}
		s.Workers = 2
		if err := s.ExploreDPOR(1750, 0); err != nil {
			t.Fatal(err)
		}
		heap := int64(liveHeap() - before)
		t.Logf("runs=%d frontier=%d live heap +%.1f MB", s.Runs(), s.FrontierLen(), float64(heap)/1e6)
		if s.FrontierLen() < 100000 {
			t.Fatalf("frontier holds %d entries; too few for the heap bound to mean anything", s.FrontierLen())
		}
		if limit := int64(32 << 20); heap > limit {
			t.Errorf("live heap +%d B after the search, want <= %d B", heap, limit)
		}
		runtime.KeepAlive(s)
	})
	t.Run("resumed", func(t *testing.T) {
		const parentFrontierBytes = 36716896 // frontier.txt of this search at the parent of PR 24
		dir := t.TempDir()
		before := liveHeap()
		s := exploreSerial(t, Lookup("controlplane-race"), dir, 1000)
		wrote := int64(liveHeap() - before)
		queued := s.FrontierLen()
		st, err := os.Stat(filepath.Join(dir, frontierFile))
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(s)
		s = nil

		before = liveHeap()
		r, err := NewSession(Lookup("controlplane-race"), dir, DefaultWatchdog)
		if err != nil {
			t.Fatal(err)
		}
		resumed := int64(liveHeap() - before)
		t.Logf("frontier=%d frontier.txt %d B; live heap +%.1f MB writing, +%.1f MB resumed",
			queued, st.Size(), float64(wrote)/1e6, float64(resumed)/1e6)
		if queued < 50000 || r.FrontierLen() != queued || r.LoadWarnings() != 0 {
			t.Fatalf("resumed %d of %d frontier entries with %d warnings; want all of at least 50,000 and none", r.FrontierLen(), queued, r.LoadWarnings())
		}
		if st.Size() > parentFrontierBytes/10 {
			t.Errorf("frontier.txt is %d B, want at most a tenth of the %d B of one prefix per entry", st.Size(), parentFrontierBytes)
		}
		if resumed > 2*wrote {
			t.Errorf("the resumed session holds +%d B live, the one that wrote the directory +%d B; want within 2x", resumed, wrote)
		}
		runtime.KeepAlive(r)
	})
}

// TestReadFrontierHeader: frontier.txt has one encoding. A file that does
// not open with frontierHeader — the one-prefix-per-line form builds before
// the grouped one wrote, or a later version — loads as empty, and every line
// of it counts as skipped, so a resuming session says how much it dropped.
func TestReadFrontierHeader(t *testing.T) {
	for _, tc := range []struct {
		name, file       string
		entries, skipped int
	}{
		{"empty", "", 0, 0},
		{"header only", frontierHeader, 0, 0},
		{"baseline", frontierHeader + "\nL -\nF 0:0\n", 1, 0},
		{"one prefix per line", "-\n0:2:0:1\n0:3:0:2 1:2:1:0\n", 0, 3},
		{"later version", "qithread-frontier v3\nL -\nF 0:0\n", 0, 3},
	} {
		q, deepest, skipped := readFrontier(splitLines(tc.file))
		if q.len() != tc.entries || skipped != tc.skipped || (tc.entries == 0 && deepest != 0) {
			t.Errorf("%s: %d entries (deepest %d), %d lines skipped; want %d entries, %d skipped", tc.name, q.len(), deepest, skipped, tc.entries, tc.skipped)
		}
	}
}

// FuzzReadFrontier: whatever bytes frontier.txt holds, loading it never
// panics, every entry it queues is the baseline or a flip inside its log, and
// the depth it reports is the deepest entry's. What it loads it writes back
// as a file that loads to the same entries.
func FuzzReadFrontier(f *testing.F) {
	for _, seed := range []string{
		"", frontierHeader, frontierHeader + "\nL -\nF 0:0\n",
		frontierHeader + "\nL 0:3:0:2 1:2:1:0 2:4:3:0\nF 0:1 2:0 2:1\nL 0:2:0:1\nF 0:0\n",
		frontierHeader + "\nL 0:2:0:1\nF 1:0\n", frontierHeader + "\nF 0:0\n", frontierHeader + "\nL 0:2:0:1\nF 0:-1 0:x\n",
		frontierHeader + "\nL 0:2:0:1\nL\nF 0:0 0:0\nF\n", frontierHeader + "\nL 0:2:0:1\nF -1:0\nF 0:4294967296\n",
		"-\n0:2:0:1\n0:3:0:2 1:2:1:0\nturn:not-a-number\n", "qithread-frontier v3\nL -\nF 0:0\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, reported, _ := readFrontier(splitLines(string(data)))
		var entries [][]core.Choice
		deepest := 0
		q.each(func(f flip) {
			if f != (flip{}) && (f.log == nil || f.pos < 0 || int(f.pos) >= len(*f.log)) {
				t.Fatalf("loaded flip %d:%d over a log of %d decisions", f.pos, f.alt, f.logLen())
			}
			entries = append(entries, materialize(f))
			deepest = max(deepest, f.depth())
		})
		if q.len() != len(entries) || reported != deepest {
			t.Fatalf("loaded %d entries, deepest %d; the queue visits %d, deepest %d", q.len(), reported, len(entries), deepest)
		}
		again, _, skipped := readFrontier(splitLines(string(q.appendFile(nil))))
		i := 0
		again.each(func(f flip) {
			if i < len(entries) && !reflect.DeepEqual(materialize(f), entries[i]) {
				t.Fatalf("entry %d reloads as %v, was %v", i, materialize(f), entries[i])
			}
			i++
		})
		if skipped != 0 || i != len(entries) {
			t.Fatalf("the %d loaded entries were written as a file that reloads %d, skipping %d lines", len(entries), i, skipped)
		}
	})
}

// TestSecondWriterRefused: a results directory has one writer. A session whose
// directory gained runs after it loaded it — another session explored there —
// is refused by name before it runs anything, and leaves every file as the
// other session left it.
func TestSecondWriterRefused(t *testing.T) {
	p := Lookup("buggy")
	dir := t.TempDir()
	exploreSerial(t, p, dir, 10)
	stale, err := NewSession(p, dir, testWatchdog)
	if err != nil {
		t.Fatal(err)
	}
	exploreSerial(t, p, dir, 5)
	snapshot := func() map[string]string {
		files := map[string]string{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(data)
		}
		return files
	}
	before := snapshot()
	for name, explore := range map[string]func() error{
		"ExploreDPOR": func() error { return stale.ExploreDPOR(5, 0) },
		"ExplorePCT":  func() error { return stale.ExplorePCT(5, 2, 0) },
	} {
		if err := explore(); err == nil || !strings.Contains(err.Error(), dir) {
			t.Errorf("%s on a directory another session wrote to: %v, want an error naming %s", name, err, dir)
		}
	}
	if stale.Runs() != 10 {
		t.Errorf("the refused session ran to %d runs, want the 10 it loaded", stale.Runs())
	}
	if after := snapshot(); !reflect.DeepEqual(after, before) {
		t.Errorf("the refused session changed the directory:\n%v\nwas\n%v", after, before)
	}
	// Whoever opens the directory now resumes from all 15 runs.
	if s := exploreSerial(t, p, dir, 5); s.Runs() != 20 || s.LoadWarnings() != 0 {
		t.Errorf("a fresh session ran to %d runs with %d warnings, want 20 and 0", s.Runs(), s.LoadWarnings())
	}
}
