package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		s := genSchedule(seed, int(n)+1)
		var buf bytes.Buffer
		if err := Save(&buf, s); err != nil {
			return false
		}
		out, err := Load(&buf)
		if err != nil || len(out) != len(s) {
			return false
		}
		for i := range s {
			if out[i] != s[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// hostileSchedules are text schedules whose fields parse as numbers but lie
// outside what an Event or a Choice may hold; replaying the negative thread id
// used to index the scheduler's thread table with it. One file per (version,
// field): the bad line is always line 3, behind a valid event. FuzzLoad seeds
// its corpus with them.
func hostileSchedules() map[string]string {
	out := make(map[string]string)
	for _, v := range []struct{ header, suffix string }{
		{scheduleHeaderV1, ""}, {scheduleHeaderV2, " 0"}, {HeaderExplored, " 0"},
	} {
		for name, line := range map[string]string{
			"negative tid":   "1 -1 3 0 0",
			"tid past int32": "1 2147483648 3 0 0",
			"status 3":       "1 0 3 0 3",
			"op 256":         "1 0 256 0 0",
		} {
			out[v.header+"/"+name] = v.header + "\n0 0 1 0 0" + v.suffix + "\n" + line + v.suffix + "\n"
		}
		if v.suffix != "" {
			out[v.header+"/negative domain"] = v.header + "\n0 0 1 0 0 0\n1 0 3 0 0 -1\n"
			out[v.header+"/domain past int32"] = v.header + "\n0 0 1 0 0 0\n1 0 3 0 0 2147483648\n"
		}
	}
	// A decision outside what a frontier entry stores: internal/explore's
	// parsePrefix refuses the same values in frontier.txt.
	for name, line := range map[string]string{
		"choice kind 256":         "c 256 2 0 1",
		"choice n past int32":     "c 1 2147483648 0 1",
		"choice def past int32":   "c 1 2 -2147483649 1",
		"choice index past int64": "c 1 2 0 9223372036854775808",
	} {
		out[HeaderExplored+"/"+name] = HeaderExplored + "\n0 0 1 0 0 0\n" + line + "\n"
	}
	return out
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"":                                   "trace: schedule: empty file",
		"not a schedule\n1 2 3 4 5\n":        "trace: bad header",
		"qithread-schedule v1\nbogus line\n": "trace: line 2: 2 fields, want 5",
		"qithread-schedule v1\n5 0 1 0 0\n":  "trace: line 2: sequence 5 out of order",
		"qithread-schedule v1\n0 0 1 0 0\nc 1 2 0 1\n": "trace: line 3: bad sequence \"c\"", // choice lines are v3 only
	}
	for _, in := range hostileSchedules() {
		cases[in] = "trace: line 3: bad "
	}
	for in, want := range cases {
		_, err := Load(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Load(%q) = %v, want an error containing %q", in, err, want)
		}
		if !strings.HasPrefix(in, HeaderExplored+"\n") {
			continue
		}
		if _, _, err := LoadExplored(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("LoadExplored(%q) = %v, want an error containing %q", in, err, want)
		}
	}
}

func TestLoadSkipsBlankLines(t *testing.T) {
	in := "qithread-schedule v1\n0 1 2 3 0\n\n1 2 3 4 1\n"
	out, err := Load(strings.NewReader(in))
	if err != nil || len(out) != 2 {
		t.Fatalf("Load = %v, %v", out, err)
	}
}
