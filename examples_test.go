package qithread_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// buildBinaries builds the main packages pkgs into one temporary directory and
// returns its path.
func buildBinaries(t *testing.T, pkgs ...string) string {
	t.Helper()
	bin := t.TempDir()
	if out, err := exec.Command("go", append([]string{"build", "-o", bin}, pkgs...)...).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", strings.Join(pkgs, " "), err, out)
	}
	return bin
}

// TestExamplesSmoke builds every example binary and runs it once, so the
// example programs — the documentation users actually execute — cannot
// silently rot as the API evolves. Each example must exit zero within its
// timeout; output is shown only on failure. Skipped with -short (it shells
// out to the go tool).
func TestExamplesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example binary")
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		name := ent.Name()
		t.Run(name, func(t *testing.T) {
			exe := filepath.Join(buildBinaries(t, "./examples/"+name), name)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			run := exec.CommandContext(ctx, exe)
			out, err := run.CombinedOutput()
			if ctx.Err() != nil {
				t.Fatalf("example timed out\n%s", out)
			}
			if err != nil {
				t.Fatalf("example exited with error: %v\n%s", err, out)
			}
		})
	}
}

// TestDetclusterExploreHintRuns: the commands detcluster prints for finding
// its seeded race, reproducing it and proving the fix are ones a user can
// paste. Each runs as printed, through sh -c, in a fresh directory with the
// built binaries first on PATH, and must exit zero: the search must emit an
// assert-fail repro, the racy program must reproduce it 20 times out of 20,
// and the fixed program must run the same schedule clean 20 times out of 20.
// Skipped with -short (it shells out to the go tool).
func TestDetclusterExploreHintRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs detcluster, qiexplore and qireplay")
	}
	bin := buildBinaries(t, "./examples/detcluster", "./cmd/qiexplore", "./cmd/qireplay")
	out, err := exec.Command(filepath.Join(bin, "detcluster")).Output()
	if err != nil {
		t.Fatalf("detcluster: %v\n%s", err, out)
	}
	var hint []string
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) > 0 && (f[0] == "qiexplore" || f[0] == "qireplay") {
			hint = append(hint, strings.TrimSpace(line))
		}
	}
	want := []*regexp.Regexp{
		regexp.MustCompile(`(?m)^repro: +results/repro-assert-fail-`),
		regexp.MustCompile(`(?m)^20 replays of results/\S+ reproduced assert-fail `),
		regexp.MustCompile(`(?m)^20 replays of results/\S+ reproduced ok `),
	}
	if len(hint) != len(want) {
		t.Fatalf("detcluster printed %d qiexplore/qireplay commands, want %d:\n%s", len(hint), len(want), out)
	}
	dir := t.TempDir()
	for i, line := range hint {
		cmd := exec.Command("sh", "-c", line)
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "PATH="+bin+string(os.PathListSeparator)+os.Getenv("PATH"))
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v\n%s", line, err, out)
		}
		if !want[i].Match(out) {
			t.Fatalf("%s printed no line matching %q:\n%s", line, want[i], out)
		}
	}
}

// TestCLIsRefuseOperands: no binary under cmd/ but qistat takes operands, and
// each refuses one with exit 2, naming it, rather than running as if it had
// not been given. Every invocation succeeds without the stray operand.
// Skipped with -short (it shells out to the go tool).
func TestCLIsRefuseOperands(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs five binaries")
	}
	bin := buildBinaries(t, "./cmd/qibench", "./cmd/qidoctor", "./cmd/qiexplore", "./cmd/qireplay", "./cmd/qitrace")
	dir := t.TempDir()
	for _, args := range [][]string{
		{"qibench", "-list"},
		{"qidoctor", "-program", "pbzip2_compress", "-scale", "0.01"},
		{"qiexplore", "-list"},
		{"qireplay", "-record", filepath.Join(dir, "r.qlog"), "-events", "16"},
		{"qitrace", "-fig1b"},
	} {
		t.Run(args[0], func(t *testing.T) {
			exe := filepath.Join(bin, args[0])
			if out, err := exec.Command(exe, args[1:]...).CombinedOutput(); err != nil {
				t.Fatalf("%s: %v\n%s", strings.Join(args, " "), err, out)
			}
			out, err := exec.Command(exe, append(args[1:], "stray")...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "unexpected arguments: stray") {
				t.Errorf("%s stray: %v, want exit status 2 naming the operand\n%s", strings.Join(args, " "), err, out)
			}
		})
	}
}

// TestQireplayRunsBelowOneRefused: qireplay -replay with -runs 0 or below
// exits 2 and says why, where it would otherwise report zero replays identical
// to the recording. Skipped with -short (it shells out to the go tool).
func TestQireplayRunsBelowOneRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs qireplay")
	}
	exe := filepath.Join(buildBinaries(t, "./cmd/qireplay"), "qireplay")
	log := filepath.Join(t.TempDir(), "r.qlog")
	if out, err := exec.Command(exe, "-record", log, "-events", "16").CombinedOutput(); err != nil {
		t.Fatalf("qireplay -record: %v\n%s", err, out)
	}
	for _, runs := range []string{"0", "-1"} {
		out, err := exec.Command(exe, "-replay", log, "-events", "16", "-runs", runs).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "-runs "+runs) {
			t.Errorf("qireplay -replay -runs %s: %v, want exit status 2 naming -runs\n%s", runs, err, out)
		}
	}
}

// TestQireplayRecordsScaledEvents: -events counts events before -scale, and
// a run records max(events × scale, sources × workers) of them: at the
// default scale 0.25 with 4 sources and 3 workers, -events 64 records 16 and
// -events 16 records 12. -record prints that count, and a replay of the log
// replays as many. Skipped with -short (it shells out to the go tool).
func TestQireplayRecordsScaledEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs qireplay")
	}
	exe := filepath.Join(buildBinaries(t, "./cmd/qireplay"), "qireplay")
	dir := t.TempDir()
	for _, c := range []struct{ events, want string }{{"64", "16"}, {"16", "12"}} {
		log := filepath.Join(dir, "r"+c.events+".qlog")
		out, err := exec.Command(exe, "-record", log, "-events", c.events).CombinedOutput()
		if err != nil || !strings.Contains(string(out), "recorded "+c.want+" events") {
			t.Errorf("qireplay -record -events %s: %v, want %s events recorded\n%s", c.events, err, c.want, out)
		}
		out, err = exec.Command(exe, "-replay", log, "-events", c.events, "-runs", "1").CombinedOutput()
		if err != nil || !strings.Contains(string(out), "1 replays of "+c.want+" events") {
			t.Errorf("qireplay -replay of the -events %s log: %v, want %s events replayed\n%s", c.events, err, c.want, out)
		}
	}
}

// TestQibenchProfilesEveryExit: qibench stops and writes the profiles
// -cpuprofile and -memprofile ask for on its way out of a failing run too —
// the run one most wants profiled — so both files are gzip streams (pprof's
// format) that read to EOF. A heap profile it cannot write makes an
// otherwise successful run exit 1. Skipped with -short (it shells out to the
// go tool).
func TestQibenchProfilesEveryExit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs qibench")
	}
	exe := filepath.Join(buildBinaries(t, "./cmd/qibench"), "qibench")
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-cpuprofile", cpu, "-memprofile", mem, "-experiment", "nosuch"}, `unknown experiment "nosuch"`},
		{[]string{"-memprofile", filepath.Join(dir, "missing", "mem.pprof"), "-list"}, "missing/mem.pprof"},
	} {
		out, err := exec.Command(exe, c.args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), c.want) {
			t.Errorf("qibench %s: %v, want exit status 1 and %q\n%s", strings.Join(c.args, " "), err, c.want, out)
		}
	}
	for _, path := range []string{cpu, mem} {
		b, err := os.ReadFile(path)
		if err == nil {
			var zr *gzip.Reader
			if zr, err = gzip.NewReader(bytes.NewReader(b)); err == nil {
				_, err = io.Copy(io.Discard, zr)
			}
		}
		if err != nil {
			t.Errorf("%s (%d bytes): %v; want a gzip stream", filepath.Base(path), len(b), err)
		}
	}
}
