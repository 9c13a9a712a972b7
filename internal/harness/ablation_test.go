package harness

import (
	"io"
	"testing"

	"qithread/internal/programs"
	"qithread/internal/workload"
)

func TestAblationStructure(t *testing.T) {
	r := &Runner{Params: workload.Params{Scale: 0.15, InputSeed: 42}}
	spec, _ := programs.Find("pbzip2_compress")
	tab, err := experiment(t, "ablation").Run(io.Discard, r, Args{Specs: []programs.Spec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"none", "BoostBlocked", "CreateAll", "CSWhole", "WakeAMAP", "BranchedWake"}
	if len(tab.rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(tab.rows), len(want))
	}
	cell := map[string]float64{}
	for i, row := range tab.rows {
		if row[0] != "pbzip2_compress" || row[1] != want[i] {
			t.Fatalf("row %d labelled %q, want pbzip2_compress %s", i, row[:2], want[i])
		}
		for _, c := range []string{"only", "without"} {
			if v := tab.num(row, c); !(v > 0) {
				t.Errorf("%s %s cell %v", row[1], c, v)
			}
			cell[c+" "+row[1]] = tab.num(row, c)
		}
	}
	// The headline synergy: removing WakeAMAP from the full set must
	// re-serialize pbzip2 (worse than half of vanilla is already failure).
	if all := cell["without none"]; cell["without WakeAMAP"] < all*2 {
		t.Errorf("removing WakeAMAP should hurt pbzip2: all=%.2f without=%.2f", all, cell["without WakeAMAP"])
	}
}
