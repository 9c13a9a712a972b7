package explore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The parallel engine's contract has three legs, each pinned here: workers=1
// byte-identical to the serial explorer it replaced, workers=N set-identical
// to workers=1 on a drained space, and the results directory surviving torn
// writes and refusing a second writer.

// Golden sha256 sums of the search state the serial explorer leaves at
// budget=120. The runs.csv sums of buggy and wakerace date from the PRE-POOL
// explorer; the frontier sums and the controlplane-race entry were captured
// on the materialised-prefix frontier, when frontier.txt was one formatPrefix
// line per entry. The file is groups of flips now, so the frontier sum is
// taken over what a resuming session loads from it, each entry expanded back
// into that line (resultsSums): Workers=1 must reproduce all of them — same
// pops, same run ids, same branching order, same runs.csv bytes.
var serialGoldens = map[string]map[string]string{
	"buggy": {
		runsFile:     "52e4f03110631b6fcbf86c963bed61fc3499dd43a51f467d84bd72e495af003a",
		frontierFile: "8c881c5902dd8580cf2d080b5f4cdac62ed3ac453a33824cbee682e08b595ed6",
	},
	"wakerace": {
		runsFile:     "33364bc1c10e339010999e69fc07e08152b8c323e0d4caf32c39976af4197c59",
		frontierFile: "4fc9764c0148b284df898296c71159919a7d81f9aa49d0e992cb8d261910e97c",
	},
	"controlplane-race": {
		runsFile:     "c5308cabf9bf9ca77748269b497dc7d3d1d28b9614a41671f9b11144b87c91dd",
		frontierFile: "5c5711475d3acfdd53a0ede6a9b25b887a5fee9b14021026b82abfdfa32dedde",
	},
}

// expandedFrontier spells out the frontier dir holds the way frontier.txt
// used to: one formatPrefix line per queued entry, in pop order.
func expandedFrontier(t *testing.T, dir string) []byte {
	t.Helper()
	res, err := ReadResults(dir)
	if err != nil || res.Skipped != 0 {
		t.Fatalf("ReadResults(%s): %v, %d lines skipped", dir, err, res.Skipped)
	}
	var out []byte
	res.frontier.each(func(f flip) {
		out = append(append(out, formatPrefix(materialize(f))...), '\n')
	})
	return out
}

// resultsSums returns the sha256 of runs.csv and of the expanded frontier.
func resultsSums(t *testing.T, dir string) map[string]string {
	t.Helper()
	runs, err := os.ReadFile(filepath.Join(dir, runsFile))
	if err != nil {
		t.Fatal(err)
	}
	sums := map[string]string{}
	for file, data := range map[string][]byte{runsFile: runs, frontierFile: expandedFrontier(t, dir)} {
		sum := sha256.Sum256(data)
		sums[file] = hex.EncodeToString(sum[:])
	}
	return sums
}

// fingerprints returns the session's seen set, sorted.
func fingerprints(s *Session) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	fps := make([]string, 0, len(s.seen))
	for fp := range s.seen {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	return fps
}

// exploreSerial runs one Workers=1 DPOR invocation over dir.
func exploreSerial(t *testing.T, p *Program, dir string, budget int) *Session {
	t.Helper()
	s, err := NewSession(p, dir, testWatchdog)
	if err != nil {
		t.Fatal(err)
	}
	s.Workers = 1
	if err := s.ExploreDPOR(budget, 0); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWorkersOneByteIdentical(t *testing.T) {
	for program, want := range serialGoldens {
		t.Run(program, func(t *testing.T) {
			dir := t.TempDir()
			exploreSerial(t, Lookup(program), dir, 120)
			for file, got := range resultsSums(t, dir) {
				if got != want[file] {
					t.Errorf("%s: sha256 %s, want %s (workers=1 diverged from the serial search order)", file, got, want[file])
				}
			}
		})
	}
}

// TestResumeEquivalence: stopping at budget 60 and resuming for 60 more must
// leave exactly the state one budget-120 invocation leaves. Across the restart
// every frontier entry goes through frontier.txt — groups of flips written
// out, the same groups read back over re-parsed logs — so this pins that the
// file denotes the same prefixes, in the same FIFO positions. The old-build
// variant rewrites the directory between the two halves into what a build
// before the frontier header left (one whole prefix per line, and a seen.txt,
// which nothing reads any more): frontier.txt has one encoding, so such a
// directory resumes its runs but loads no frontier — every line of it is a
// counted load warning, and the search has nothing left to run.
func TestResumeEquivalence(t *testing.T) {
	for program, want := range serialGoldens {
		resume := func(t *testing.T, oldBuild bool) {
			dir := t.TempDir()
			first := exploreSerial(t, Lookup(program), dir, 60)
			wantRuns, wantWarnings := 120, 0
			if oldBuild {
				old := expandedFrontier(t, dir)
				for file, data := range map[string][]byte{frontierFile: old, "seen.txt": []byte("not-a-fingerprint\n")} {
					if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				wantRuns, wantWarnings = 60, bytes.Count(old, []byte("\n"))
			}
			second := exploreSerial(t, Lookup(program), dir, 60)
			if first.Runs() != 60 || second.Runs() != wantRuns || second.LoadWarnings() != wantWarnings {
				t.Fatalf("ran to %d then %d runs with %d load warnings, want 60, %d and %d", first.Runs(), second.Runs(), second.LoadWarnings(), wantRuns, wantWarnings)
			}
			if oldBuild {
				return
			}
			for file, got := range resultsSums(t, dir) {
				if got != want[file] {
					t.Errorf("%s: sha256 %s after 60+60, want the one-shot budget-120 sum %s", file, got, want[file])
				}
			}
		}
		t.Run(program, func(t *testing.T) {
			resume(t, false)
			t.Run("old-build", func(t *testing.T) { resume(t, true) })
		})
	}
}

// TestExploreOrderPinned holds the serial search of the seeded control-plane
// race — the program every explore benchmark row runs — to what it did before
// the per-run scaffolding was recycled and the cell rebuilt from slabs (PR
// 20): 300 runs, the ordered (outcome, fingerprint, decision count) of every
// one folded into a hash, and the failure count. The budget-120 goldens above
// stop before most of the failures; this runs into them and through their
// minimizations.
func TestExploreOrderPinned(t *testing.T) {
	const (
		wantOrder    = "73ccc762384470c06b26d3925533c997eea5d0308c48d1dae5fb9b81c26a0288"
		wantFailures = 10
	)
	dir := t.TempDir()
	s := exploreSerial(t, Lookup("controlplane-race"), dir, 300)
	data, err := os.ReadFile(filepath.Join(dir, runsFile))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	rows := 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n")[1:] {
		// run,strategy,depth,decisions,outcome,new,fingerprint,err
		c := strings.Split(line, ",")
		if len(c) != 8 {
			t.Fatalf("runs.csv row %q has %d cells, want 8", line, len(c))
		}
		fmt.Fprintf(h, "%s %s %s\n", c[4], c[6], c[3])
		rows++
	}
	if got := hex.EncodeToString(h.Sum(nil)); rows != 300 || got != wantOrder || s.Failures() != wantFailures {
		t.Errorf("%d runs, order hash %s, %d failures; want 300, %s, %d", rows, got, s.Failures(), wantOrder, wantFailures)
	}
}

// TestWorkerCountInvariance drains a depth-bounded schedule space with 1 and
// with 4 workers. Interleaving of pops is timing-dependent, but the explored
// CLOSURE is not: both must discover the same fingerprint set and the same
// minimized bug set.
func TestWorkerCountInvariance(t *testing.T) {
	explore := func(workers int) (fps []string, bugs []string, runs int) {
		p := Lookup("buggy")
		dir := t.TempDir()
		s, err := NewSession(p, dir, testWatchdog)
		if err != nil {
			t.Fatal(err)
		}
		s.Workers = workers
		if err := s.ExploreDPOR(2000, 5); err != nil {
			t.Fatal(err)
		}
		if s.FrontierLen() != 0 {
			t.Fatalf("workers=%d: frontier not drained (%d left); invariance only holds on the full closure", workers, s.FrontierLen())
		}
		fps = fingerprints(s)
		s.mu.Lock()
		for sig := range s.reproSigs {
			bugs = append(bugs, sig)
		}
		s.mu.Unlock()
		sort.Strings(bugs)
		return fps, bugs, s.Runs()
	}
	fps1, bugs1, runs1 := explore(1)
	fps4, bugs4, runs4 := explore(4)
	t.Logf("workers=1: %d runs %d fps %d bugs; workers=4: %d runs %d fps %d bugs",
		runs1, len(fps1), len(bugs1), runs4, len(fps4), len(bugs4))
	if len(bugs1) == 0 {
		t.Fatal("drained space contains no bugs; the invariance check is vacuous")
	}
	if !equalStrings(fps1, fps4) {
		t.Errorf("fingerprint sets differ between workers=1 (%d) and workers=4 (%d)", len(fps1), len(fps4))
	}
	if !equalStrings(bugs1, bugs4) {
		t.Errorf("minimized bug sets differ between workers=1 (%v) and workers=4 (%v)", bugs1, bugs4)
	}
}

// TestPCTWorkerInvariance pins the same property for the PCT pool: the walk
// for index i is a pure function of (seed, i), so any worker count must
// produce the same fingerprint set.
func TestPCTWorkerInvariance(t *testing.T) {
	walk := func(workers int) []string {
		p := Lookup("buggy")
		s, err := NewSession(p, "", testWatchdog)
		if err != nil {
			t.Fatal(err)
		}
		s.Workers = workers
		if err := s.ExplorePCT(150, 3, 7); err != nil {
			t.Fatal(err)
		}
		return fingerprints(s)
	}
	fps1, fps4 := walk(1), walk(4)
	if !equalStrings(fps1, fps4) {
		t.Errorf("PCT fingerprint sets differ: workers=1 found %d, workers=4 found %d", len(fps1), len(fps4))
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestHBPruningFewerRuns pins the tentpole's pruning claim on the E20 ground
// truth: with happens-before flip pruning the explorer must still rediscover
// BOTH divergent policy fingerprints of wakerace, and must reach the later of
// the two in strictly fewer runs than the fingerprint-only search.
func TestHBPruningFewerRuns(t *testing.T) {
	p := Lookup("wakerace")
	worstDiscovery := func(hb bool, budget int) (worst, pruned int) {
		s, err := NewSession(p, "", testWatchdog)
		if err != nil {
			t.Fatal(err)
		}
		s.HB = hb
		if err := s.ExploreDPOR(budget, 0); err != nil {
			t.Fatal(err)
		}
		for _, r := range s.Rediscoveries() {
			if !r.Divergent || r.Variant == "all-policies" {
				continue // all-policies is out of reach for both searches (E20)
			}
			id, ok := s.SeenAt(r.Fingerprint)
			if !ok {
				t.Fatalf("hb=%v: variant %s not rediscovered within %d runs", hb, r.Variant, budget)
			}
			t.Logf("hb=%v: %s rediscovered at run %d", hb, r.Variant, id)
			if id > worst {
				worst = id
			}
		}
		return worst, s.Pruned()
	}
	worstHB, pruned := worstDiscovery(true, 3000)
	worstPlain, _ := worstDiscovery(false, 6000)
	if pruned == 0 {
		t.Error("HB search pruned nothing; the independence relation is inert")
	}
	if worstHB >= worstPlain {
		t.Errorf("HB pruning needed %d runs to rediscover both divergences, fingerprint-only needed %d; want strictly fewer", worstHB, worstPlain)
	}
}

// TestHBPruningKeepsBugReachable: pruning must never lose the seeded bug —
// the wake-sensitive and wake-reacquisition exemptions exist exactly so the
// signal-to-reacquire window stays explorable.
func TestHBPruningKeepsBugReachable(t *testing.T) {
	p := Lookup("buggy")
	s, err := NewSession(p, t.TempDir(), testWatchdog)
	if err != nil {
		t.Fatal(err)
	}
	s.Workers = 4
	s.HB = true
	if err := s.ExploreDPOR(400, 0); err != nil {
		t.Fatal(err)
	}
	t.Logf("runs=%d failures=%d pruned=%d", s.Runs(), s.Failures(), s.Pruned())
	if s.Pruned() == 0 {
		t.Error("no flips pruned on buggy; the independence relation is inert")
	}
	if s.Failures() == 0 || len(s.Repros()) == 0 {
		t.Fatalf("HB pruning lost the seeded bug: %d failures, %d repros within 400 runs", s.Failures(), len(s.Repros()))
	}
}

// TestLoadToleratesCorruption: a torn runs.csv line (crashed writer), a
// full-width one with a cell no session writes (it was a run at depth 0 until
// PR 24) and corrupt frontier lines must be skipped — counted in LoadWarnings
// — instead of making the directory unresumable. A group whose flips are out
// of range goes as a whole; the groups around it stand.
func TestLoadToleratesCorruption(t *testing.T) {
	p := Lookup("buggy")
	dir := t.TempDir()
	s1, err := NewSession(p, dir, testWatchdog)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.ExploreDPOR(10, 0); err != nil {
		t.Fatal(err)
	}

	appendTo := func(name, line string) {
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(line); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	appendTo(runsFile, "999,dpor,3\n") // torn mid-line: too few cells
	appendTo(runsFile, "x98,dpor,3,25,ok,false,fp,\n997,dpor,3,,ok,false,fp,\n996,dpor,3,25,assert-fail,yes,fp,\n995,dpor,3,25,crashed,true,fp,\n")
	appendTo(frontierFile, "turn:not-a-number\nL 0:2:0:x\nF 0:1\nL 0:2:0:1 0:2:0:0\nF 1:1 2:0\nF 0:1\nL -\nF 0:1\n")

	s2, err := NewSession(p, dir, testWatchdog)
	if err != nil {
		t.Fatalf("resume after corruption: %v", err)
	}
	if got := s2.LoadWarnings(); got != 11 {
		t.Errorf("LoadWarnings = %d, want 11 (one torn and four unparseable runs lines; a line that is no group line, a log that does not parse and its orphaned flips, flips past their log, flips after a log was used, a non-baseline flip of the empty log)", got)
	}
	if s2.Distinct() != s1.Distinct() || s2.Failures() != s1.Failures() {
		t.Errorf("resume counted %d fingerprints and %d failures, want %d and %d", s2.Distinct(), s2.Failures(), s1.Distinct(), s1.Failures())
	}
	if s2.Runs() != s1.Runs() {
		t.Errorf("resume counted %d runs, want %d (torn line must not count)", s2.Runs(), s1.Runs())
	}
	if s2.FrontierLen() != s1.FrontierLen() {
		t.Errorf("resume loaded %d frontier entries, want %d (corrupt entry must be dropped)", s2.FrontierLen(), s1.FrontierLen())
	}
	if err := s2.ExploreDPOR(5, 0); err != nil {
		t.Fatalf("exploration after corrupted resume: %v", err)
	}
	if s2.Runs() != s1.Runs()+5 {
		t.Errorf("continued to %d runs, want %d", s2.Runs(), s1.Runs()+5)
	}
}

// TestWorkerStatsPersisted: a pool run leaves workers.txt with one row per
// worker whose run counts sum to the executed budget.
func TestWorkerStatsPersisted(t *testing.T) {
	p := Lookup("buggy")
	dir := t.TempDir()
	s, err := NewSession(p, dir, testWatchdog)
	if err != nil {
		t.Fatal(err)
	}
	s.Workers = 4
	if err := s.ExploreDPOR(100, 0); err != nil {
		t.Fatal(err)
	}
	stats := s.WorkerStats()
	if len(stats) != 4 {
		t.Fatalf("got %d worker stats, want 4", len(stats))
	}
	total := 0
	for _, st := range stats {
		total += st.Runs
	}
	if total != 100 {
		t.Errorf("worker run counts sum to %d, want 100", total)
	}
	data, err := os.ReadFile(filepath.Join(dir, workersFile))
	if err != nil {
		t.Fatalf("workers.txt not written: %v", err)
	}
	want := fmt.Sprintf("worker,runs,new,branched,pruned,elapsed_ms\n")
	if len(data) <= len(want) {
		t.Errorf("workers.txt too short: %q", data)
	}
}
