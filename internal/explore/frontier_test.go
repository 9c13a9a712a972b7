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
// flip renders the line of the prefix it stands for without building it.
func TestPrefixRoundTripQuick(t *testing.T) {
	prop := func(raw [][4]uint32, alt uint16) bool {
		prefix := quickPrefix(raw)
		line := formatPrefix(prefix)
		back, err := parsePrefix(line)
		if err != nil || len(back) != len(prefix) || (len(prefix) > 0 && !reflect.DeepEqual(back, prefix)) {
			t.Logf("parsePrefix(%q) = %v, %v; want %v", line, back, err, prefix)
			return false
		}
		if got := string(prefixFlip(prefix).appendLine(nil)); got != line {
			t.Logf("prefixFlip line %q, want %q", got, line)
			return false
		}
		// A flip anywhere along a shared log is the log cut there with the
		// alternative swapped in.
		for pos := range prefix {
			f := flip{log: &prefix, pos: int32(pos), alt: int32(alt)}
			want := append([]core.Choice(nil), prefix[:pos+1]...)
			want[pos].Index = int(alt)
			if got := string(f.appendLine(nil)); got != formatPrefix(want) || !reflect.DeepEqual(materialize(f), want) {
				t.Logf("flip at %d renders %q / %v, want %q", pos, got, materialize(f), formatPrefix(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzParsePrefix: the frontier-line loader must reject or round-trip any
// input — never panic, never accept a line it would write back differently
// (an accepted line is re-emitted by the next save, so a lossy parse would
// silently rewrite another process's frontier entries).
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
		if got := string(fl.appendLine(nil)); got != formatPrefix(prefix) {
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
	if got, want := string(f.appendLine(nil)), "0:3:0:1"; got != want {
		t.Errorf("first flip %q, want %q", got, want)
	}
}

// TestFrontierRetention: an in-memory search of controlplane-race to the
// benchmark's budget must end with a small live heap. The frontier holds
// ~119k entries of ~70 decisions' depth on average; materialised, and with
// popped entries pinned behind a resliced backing array, that was 267 MB.
func TestFrontierRetention(t *testing.T) {
	if testing.Short() {
		t.Skip("explores 1,750 schedules")
	}
	s, err := NewSession(Lookup("controlplane-race"), "", DefaultWatchdog)
	if err != nil {
		t.Fatal(err)
	}
	s.Workers = 2
	if err := s.ExploreDPOR(1750, 0); err != nil {
		t.Fatal(err)
	}
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	t.Logf("runs=%d frontier=%d live heap %.1f MB", s.Runs(), s.FrontierLen(), float64(m.HeapAlloc)/1e6)
	if s.FrontierLen() < 100000 {
		t.Fatalf("frontier holds %d entries; too few for the heap bound to mean anything", s.FrontierLen())
	}
	if limit := uint64(32 << 20); m.HeapAlloc > limit {
		t.Errorf("live heap %d B after the search, want <= %d B", m.HeapAlloc, limit)
	}
	runtime.KeepAlive(s)
}

// TestFrontierMergeKeepsForeignEntries: saving merges with the frontier.txt
// on disk. Entries another process queued survive, after this session's own
// and in file order; entries this session popped, entries it still holds and
// corrupt lines do not come back.
func TestFrontierMergeKeepsForeignEntries(t *testing.T) {
	p := Lookup("buggy")
	dir := t.TempDir()
	exploreSerial(t, p, dir, 10)
	path := filepath.Join(dir, frontierFile)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	own := strings.Split(strings.TrimSpace(string(before)), "\n")
	const foreignA, foreignB = "0:9:0:7 1:9:0:8", "0:9:0:7 1:9:0:6"
	// Another process's two entries, one of ours repeated, one torn line.
	added := strings.Join([]string{foreignA, own[len(own)-1], "0:9:0", foreignB}, "\n") + "\n"
	if err := os.WriteFile(path, append(before, added...), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := NewSession(p, dir, testWatchdog)
	if err != nil {
		t.Fatal(err)
	}
	if s.LoadWarnings() != 1 || s.FrontierLen() != len(own)+3 {
		t.Fatalf("loaded %d entries with %d warnings, want %d and 1", s.FrontierLen(), s.LoadWarnings(), len(own)+3)
	}
	// A second writer queues an entry while this session is exploring.
	const late = "0:9:0:7 1:9:0:5"
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("garbage\n" + late + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s.Workers = 1
	if err := s.ExploreDPOR(3, 0); err != nil {
		t.Fatal(err)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(after)), "\n")
	if len(lines) != s.FrontierLen()+1 {
		t.Fatalf("frontier.txt has %d lines, want the session's %d plus the late foreign entry", len(lines), s.FrontierLen())
	}
	if got := lines[len(lines)-1]; got != late {
		t.Errorf("last line %q, want the other writer's %q", got, late)
	}
	count := map[string]int{}
	for _, l := range lines {
		count[l]++
	}
	for _, popped := range own[:3] {
		if count[popped] != 0 {
			t.Errorf("popped entry %q came back from disk", popped)
		}
	}
	if count[foreignA] != 1 || count[foreignB] != 1 || count["garbage"] != 0 || count["0:9:0"] != 0 {
		t.Errorf("foreign entries kept %d/%d times (want 1/1), corrupt lines %d/%d (want 0/0)",
			count[foreignA], count[foreignB], count["garbage"], count["0:9:0"])
	}
}
