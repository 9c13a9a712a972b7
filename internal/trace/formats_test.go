package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"qithread/internal/core"
)

// TestFormatsPinned holds every schedule writer to the bytes the parent of the
// one-declaration-per-schema change wrote. testdata/ holds that build's output
// for one fixed synthetic schedule per header (v3b twice: one raw frame, and
// three DEFLATE frames whose bytes belong to compress/flate, so that file is
// only loaded); the SHA-256 constants were recorded there too, so a
// regenerated fixture cannot move the pin. Each writer must reproduce its
// file, and each file must load to the schedule it was saved from.
func TestFormatsPinned(t *testing.T) {
	v2 := synthSchedule(100) // events 0 and 97 sit outside the default domain
	v1 := synthSchedule(100)
	for i := range v1 {
		v1[i].Domain = 0
	}
	choices := []core.Choice{{Kind: 0, N: 3, Def: 0, Index: 2}, {Kind: 1, N: 2, Def: 1, Index: 0}, {Kind: 2, N: 4, Def: 3, Index: 3}}
	for _, tc := range []struct {
		file, header, sha string
		save              func(io.Writer) error // nil: the file is only loaded
		events            []core.Event
		choices           []core.Choice
	}{
		{"v1.sched", scheduleHeaderV1, "f764b81f5a6a374ef14a53ddb55df441ed1a71f2c88875d74d88695a4cdede8d",
			func(w io.Writer) error { return Save(w, v1) }, v1, nil},
		{"v2.sched", scheduleHeaderV2, "7de1b6a821c8de34bfc6da49761c38234ddc6caccf393bd37361e3ede10fe704",
			func(w io.Writer) error { return Save(w, v2) }, v2, nil},
		{"v3.sched", HeaderExplored, "bc215bb737c9914bf410bd4c6dc9b845381dc60f9a6963e90404f4a0a3a5fab7",
			func(w io.Writer) error { return SaveExplored(w, v2, choices) }, v2, choices},
		{"v3b.qbin", scheduleHeaderV3B, "206936812c85ab7e5a4a45bcb92ea45e9734d236a1ddd5071ab62f04d1d58c25",
			func(w io.Writer) error { return SaveBinary(w, v2) }, v2, nil},
		{"v3b-frames.qbin", scheduleHeaderV3B, "2689a8793545ea86fac092ad2cd0ff041cc864924e76f52d864e250784292b9e",
			nil, synthSchedule(2*frameEvents + 17), nil},
	} {
		file, err := os.ReadFile("testdata/" + tc.file)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(file); hex.EncodeToString(sum[:]) != tc.sha {
			t.Errorf("testdata/%s is not the file the parent build wrote (sha256 %x)", tc.file, sum)
		}
		if !strings.HasPrefix(string(file), tc.header+"\n") {
			t.Errorf("testdata/%s does not start with %q", tc.file, tc.header)
		}
		if tc.save != nil {
			var buf bytes.Buffer
			if err := tc.save(&buf); err != nil {
				t.Fatalf("%s: %v", tc.file, err)
			}
			if !bytes.Equal(buf.Bytes(), file) {
				t.Errorf("%s: the writer's output changed:\n got %q\nwant %q", tc.file, buf.Bytes(), file)
			}
		}
		events, err := Load(bytes.NewReader(file))
		if err != nil || !slices.Equal(events, tc.events) {
			t.Errorf("Load(testdata/%s) = %d events, %v; want the %d it was saved from", tc.file, len(events), err, len(tc.events))
		}
		events, got, err := LoadExplored(bytes.NewReader(file))
		if tc.choices == nil {
			if err == nil {
				t.Errorf("LoadExplored accepted testdata/%s, a plain schedule", tc.file)
			}
		} else if err != nil || !slices.Equal(events, tc.events) || !slices.Equal(got, tc.choices) {
			t.Errorf("LoadExplored(testdata/%s) = %d events, %v, %v; want %v", tc.file, len(events), got, err, tc.choices)
		}
	}
}

// TestWritersEnforceBounds: what the loaders refuse, the writers refuse to
// write — a text file with a negative id or a binary one whose status was
// silently masked to two bits is a file nothing reads back. An id past int32
// cannot be written at all: core.Event holds ids as int32, so the negative
// rows are the writers' id bound (the loaders' past-int32 rows are in
// TestLoadersEnforceBounds and TestBinaryRejectsOutOfRangeIDs).
func TestWritersEnforceBounds(t *testing.T) {
	good := core.Event{TID: maxID, Op: core.OpMutexLock, Obj: 1<<64 - 1, Status: maxStatus, Domain: maxID}
	writers := map[string]func([]core.Event) error{
		"Save":         func(evs []core.Event) error { return Save(io.Discard, evs) },
		"SaveBinary":   func(evs []core.Event) error { return SaveBinary(io.Discard, evs) },
		"SaveExplored": func(evs []core.Event) error { return SaveExplored(io.Discard, evs, nil) },
	}
	for name, save := range writers {
		if err := save([]core.Event{good}); err != nil {
			t.Errorf("%s refused an event at the bounds: %v", name, err)
		}
		for what, mutate := range map[string]func(*core.Event){
			"negative thread id":       func(e *core.Event) { e.TID = -1 },
			"thread id at MinInt32":    func(e *core.Event) { e.TID = math.MinInt32 },
			"negative domain id":       func(e *core.Event) { e.Domain = -1 },
			"domain id at MinInt32":    func(e *core.Event) { e.Domain = math.MinInt32 },
			"status past StatusReturn": func(e *core.Event) { e.Status = maxStatus + 1 },
		} {
			bad := good
			mutate(&bad)
			if err := save([]core.Event{bad}); err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Errorf("%s wrote an event with a %s: %v", name, what, err)
			}
		}
	}
	for _, c := range []core.Choice{{N: maxChoice + 1}, {Def: minChoice - 1}, {Index: maxChoice + 1}} {
		if err := SaveExplored(io.Discard, nil, []core.Choice{c}); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("SaveExplored wrote decision %v: %v", c, err)
		}
	}
	if err := SaveExplored(io.Discard, nil, []core.Choice{{Kind: 255, N: maxChoice, Def: minChoice, Index: -1}}); err != nil {
		t.Errorf("SaveExplored refused a decision at the bounds: %v", err)
	}
}
