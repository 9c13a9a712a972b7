package main

import (
	"bytes"
	"strings"
	"testing"

	"qithread/internal/explore"
)

// TestScheduleDivergencePrinted: a repro replayed against a program it was
// not recorded from leaves the schedule, and the replay's divergence
// diagnostic — the only text that says where — reaches stderr beside the two
// schedule hashes.
func TestScheduleDivergencePrinted(t *testing.T) {
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
	var stdout, stderr bytes.Buffer
	if code := replaySchedule(&stdout, &stderr, repros[0], "wakerace", 1, "failure", false); code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
	for _, want := range []string{"schedule hash", "replay divergence"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr does not say %q:\n%s", want, stderr.String())
		}
	}
}
