package harness

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"qithread/internal/programs"
	"qithread/internal/workload"
)

func TestChartRendering(t *testing.T) {
	r := &Runner{Params: workload.Params{Scale: 0.05, InputSeed: 42}}
	spec, _ := programs.Find("redis")
	tab, err := experiment(t, "fig8").Run(io.Discard, r, Args{Specs: []programs.Spec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	fprintChart(&sb, tab)
	out := sb.String()
	if !strings.Contains(out, "redis") || !strings.Contains(out, "#") {
		t.Fatalf("chart rendering broken:\n%s", out)
	}
	// Overflow clamp: a synthetic huge makespan renders with the '>' marker.
	row := tab.rows[0]
	row[tab.col(VanillaRR().Name+"_ms")] = ms(99 * tab.dur(row, Nondet().Name+"_ms"))
	sb.Reset()
	fprintChart(&sb, tab)
	if !strings.Contains(sb.String(), ">") {
		t.Fatalf("overflow marker missing:\n%s", sb.String())
	}
}

// TestChartFromTable: fig8's -chart is a function of its table. What the arm
// prints below its title is the table and the chart of that table read back
// from its CSV, and the chart draws every configuration the table measured:
// the hinted (Parrot w/ PCS) bar of each PCS-hinted program, none elsewhere.
func TestChartFromTable(t *testing.T) {
	r := &Runner{Params: workload.Params{Scale: 0.05, InputSeed: 42}}
	var specs []programs.Spec
	pcs := 0
	for _, name := range []string{"pbzip2_compress", "cholesky", "redis"} {
		s, ok := programs.Find(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if s.Hints.PCS {
			pcs++
		}
		specs = append(specs, s)
	}
	if pcs != 1 {
		t.Fatalf("%d PCS-hinted programs in the selection, want 1", pcs)
	}
	var printed bytes.Buffer
	tab, err := experiment(t, "fig8").Run(&printed, r, Args{Specs: specs, Chart: true})
	if err != nil {
		t.Fatal(err)
	}
	_, body, _ := strings.Cut(printed.String(), "\n")
	var file, want bytes.Buffer
	if err := tab.WriteCSV(&file); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&file)
	if err != nil {
		t.Fatal(err)
	}
	back.Fprint(&want)
	fprintChart(&want, back)
	if body != want.String() {
		t.Errorf("the arm printed\n%s\nthe table read back and its chart print\n%s", body, want.String())
	}
	for _, m := range []Mode{VanillaRR(), ParrotSoft(), ParrotPCS(), QiThread()} {
		bars, want := strings.Count(body, fmt.Sprintf("  %-12s|", m.Name)), len(specs)
		if m.Cfg.PCS {
			want = pcs
		}
		if bars != want {
			t.Errorf("%d %s bars, want %d:\n%s", bars, m.Name, want, body)
		}
	}
}
