package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qithread/internal/explore"
)

// TestScheduleDivergencePrinted: a repro replayed against a program it was
// not recorded from leaves the schedule, and the replay's divergence
// diagnostic — the only text that says where — reaches stderr beside the two
// schedule hashes.
func TestScheduleDivergencePrinted(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := replaySchedule(&stdout, &stderr, buggyRepro(t), "wakerace", 1, "failure", false); code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
	for _, want := range []string{"schedule hash", "replay divergence"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr does not say %q:\n%s", want, stderr.String())
		}
	}
}

// TestScheduleRunsBelowOneRefused: -schedule with -runs 0 or below is a usage
// error. Were it run, the check would pass with no replay made, here with a
// buggy repro against the wrong program, which replays as a divergence.
func TestScheduleRunsBelowOneRefused(t *testing.T) {
	repro := buggyRepro(t)
	for _, runs := range []int{0, -1} {
		var stdout, stderr bytes.Buffer
		if code := replaySchedule(&stdout, &stderr, repro, "wakerace", runs, "failure", false); code != 2 || !strings.Contains(stderr.String(), "-runs") {
			t.Errorf("-runs %d: exit code %d, want 2 and a refusal naming -runs\nstdout: %s\nstderr: %s", runs, code, &stdout, &stderr)
		}
	}
}

// buggyRepro explores the buggy program and returns the path of the first
// repro it writes.
func buggyRepro(t *testing.T) string {
	t.Helper()
	s, err := explore.NewSession(explore.Lookup("buggy"), t.TempDir(), explore.DefaultWatchdog)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ExploreDPOR(400, 0); err != nil {
		t.Fatal(err)
	}
	repros := s.Repros()
	if len(repros) == 0 {
		t.Fatal("exploring buggy found no failure to write a repro of")
	}
	return repros[0]
}

// TestLoadSidecar: a sidecar saveLog wrote reads back as its mode and
// observables line; a missing one is no sidecar; one that exists but cannot be
// read is an error, not a missing one; one without its mode= line — a format
// no build writes — is refused by name with a request to re-record.
func TestLoadSidecar(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	obs, mode, err := loadSidecar(write("ok.fp", "mode=no-hint\nout=1 fp=2\n"))
	if err != nil || obs != "out=1 fp=2" || mode != "no-hint" {
		t.Errorf("loadSidecar = %q, %q, %v; want the observables line and mode no-hint", obs, mode, err)
	}
	if obs, _, err := loadSidecar(filepath.Join(dir, "missing.fp")); obs != "" || err != nil {
		t.Errorf("missing sidecar: %q, %v; want no sidecar and no error", obs, err)
	}
	unreadable := filepath.Join(dir, "dir.fp")
	if err := os.Mkdir(unreadable, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadSidecar(unreadable); err == nil {
		t.Errorf("sidecar path %s is a directory: no error, want the read error", unreadable)
	}
	for _, body := range []string{"out=1 fp=2\n", "mode=qithread\n"} {
		path := write("bad.fp", body)
		if _, _, err := loadSidecar(path); err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "re-record") {
			t.Errorf("sidecar %q: error %v, want one naming %s and asking for a re-record", body, err, path)
		}
	}
}
