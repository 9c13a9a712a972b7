package qithread_test

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

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
	bin := t.TempDir()
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		name := ent.Name()
		t.Run(name, func(t *testing.T) {
			exe := filepath.Join(bin, name)
			build := exec.Command("go", "build", "-o", exe, "./examples/"+name)
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("build failed: %v\n%s", err, out)
			}
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

// TestDetclusterExploreHintRuns: the qiexplore command detcluster prints for
// finding its seeded race is one a user can paste. It is run as printed, with
// results/ in a temporary directory and -budget 1 appended to keep it short,
// and must exit zero. Skipped with -short (it shells out to the go tool).
func TestDetclusterExploreHintRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs detcluster and qiexplore")
	}
	bin := t.TempDir()
	for _, pkg := range []string{"./examples/detcluster", "./cmd/qiexplore"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
	}
	out, err := exec.Command(filepath.Join(bin, "detcluster")).Output()
	if err != nil {
		t.Fatalf("detcluster: %v\n%s", err, out)
	}
	var hint []string
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "qiexplore" {
			hint = f
		}
	}
	if hint == nil {
		t.Fatalf("detcluster printed no qiexplore command:\n%s", out)
	}
	results := t.TempDir()
	var args []string
	for _, a := range hint[1:] {
		args = append(args, strings.Replace(a, "results/", results+"/", 1))
	}
	args = append(args, "-budget", "1")
	if out, err := exec.Command(filepath.Join(bin, "qiexplore"), args...).CombinedOutput(); err != nil {
		t.Fatalf("%s: %v\n%s", strings.Join(hint, " "), err, out)
	}
}
