package harness

import (
	"strings"
	"testing"

	"qithread/internal/programs"
	"qithread/internal/workload"
)

func TestAblationStructure(t *testing.T) {
	r := &Runner{Params: workload.Params{Scale: 0.15, InputSeed: 42}}
	spec, _ := programs.Find("pbzip2_compress")
	rows := r.Ablation([]programs.Spec{spec})
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	row := rows[0]
	for _, p := range []string{"BoostBlocked", "CreateAll", "CSWhole", "WakeAMAP", "BranchedWake"} {
		if row.Only[p] <= 0 || row.Without[p] <= 0 {
			t.Errorf("missing ablation cell for %s: %+v", p, row)
		}
	}
	// The headline synergy: removing WakeAMAP from the full set must
	// re-serialize pbzip2 (worse than half of vanilla is already failure).
	if row.Without["WakeAMAP"] < row.AllPolicies*2 {
		t.Errorf("removing WakeAMAP should hurt pbzip2: all=%.2f without=%.2f", row.AllPolicies, row.Without["WakeAMAP"])
	}
	var sb strings.Builder
	FprintAblation(&sb, rows)
	if !strings.Contains(sb.String(), "pbzip2_compress") {
		t.Errorf("ablation table missing program: %s", sb.String())
	}
}

func TestChartRendering(t *testing.T) {
	r := &Runner{Params: workload.Params{Scale: 0.05, InputSeed: 42}}
	spec, _ := programs.Find("redis")
	modes := []Mode{VanillaRR(), QiThread()}
	rows := []Row{r.MeasureRow(spec, modes)}
	var sb strings.Builder
	FprintChart(&sb, rows, modes, 16)
	out := sb.String()
	if !strings.Contains(out, "redis") || !strings.Contains(out, "#") {
		t.Fatalf("chart rendering broken:\n%s", out)
	}
	// Overflow clamp: a synthetic huge value renders with the '>' marker.
	rows[0].Norm[VanillaRR().Name] = 99
	sb.Reset()
	FprintChart(&sb, rows, modes, 16)
	if !strings.Contains(sb.String(), ">") {
		t.Fatalf("overflow marker missing:\n%s", sb.String())
	}
}
