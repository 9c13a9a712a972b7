package harness

import (
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"qithread"
	"qithread/internal/programs"
	"qithread/internal/stats"
	"qithread/internal/workload"
)

// testParams is sized so shapes are visible but tests stay fast.
var testParams = workload.Params{Scale: 0.25, InputSeed: 42}

func runner() *Runner { return &Runner{Params: testParams} }

func norm(t *testing.T, name string, mode Mode) float64 {
	t.Helper()
	spec, ok := programs.Find(name)
	if !ok {
		t.Fatalf("unknown program %s", name)
	}
	r := runner()
	base := r.Measure(spec, Nondet())
	return stats.Normalized(r.Measure(spec, mode), base)
}

// TestFigure1aSerializationShape is the headline of Section 2: vanilla round
// robin serializes pbzip2 (overhead around 10x or more), while Parrot's soft
// barrier and QiThread's policies both restore most of the parallelism.
func TestFigure1aSerializationShape(t *testing.T) {
	vanilla := norm(t, "pbzip2_compress", VanillaRR())
	parrot := norm(t, "pbzip2_compress", ParrotSoft())
	qi := norm(t, "pbzip2_compress", QiThread())
	if vanilla < 5 {
		t.Errorf("vanilla round robin should serialize pbzip2: %.2fx", vanilla)
	}
	if parrot > vanilla/3 {
		t.Errorf("Parrot soft barrier should fix pbzip2: parrot=%.2fx vanilla=%.2fx", parrot, vanilla)
	}
	if qi > vanilla/3 {
		t.Errorf("QiThread policies should fix pbzip2: qi=%.2fx vanilla=%.2fx", qi, vanilla)
	}
}

// TestVipsPathologyShape reproduces Section 5.2's vips analysis: per-consumer
// condition variables defeat WakeAMAP, so QiThread stays near vanilla round
// robin while Parrot's soft barrier still helps — vips is the program with
// the largest QiThread-vs-Parrot slowdown.
func TestVipsPathologyShape(t *testing.T) {
	vanilla := norm(t, "vips", VanillaRR())
	parrot := norm(t, "vips", ParrotSoft())
	qi := norm(t, "vips", QiThread())
	if qi < vanilla*0.5 {
		t.Errorf("no QiThread policy should fix vips: qi=%.2fx vanilla=%.2fx", qi, vanilla)
	}
	if parrot > qi {
		t.Errorf("Parrot soft barriers should beat QiThread on vips: parrot=%.2fx qi=%.2fx", parrot, qi)
	}
}

// TestCreateLoopShape reproduces the Figure 2 discussion: pure-compute
// children created in a loop serialize under vanilla round robin and are
// fixed by the QiThread policies (CreateAll + BoostBlocked).
func TestCreateLoopShape(t *testing.T) {
	vanilla := norm(t, "histogram-pthread", VanillaRR())
	qi := norm(t, "histogram-pthread", QiThread())
	if vanilla < 5 {
		t.Errorf("vanilla round robin should serialize create loops: %.2fx", vanilla)
	}
	if qi > 2 {
		t.Errorf("QiThread should fix create loops: %.2fx", qi)
	}
}

// TestLogicalClockBalancesWithoutHints checks the Kendo/CoreDet property the
// paper grants it: good performance without annotations (its flaw is
// stability, not speed).
func TestLogicalClockBalancesWithoutHints(t *testing.T) {
	lc := norm(t, "pbzip2_compress", Kendo())
	if lc > 3 {
		t.Errorf("logical clock should balance pbzip2 without hints: %.2fx", lc)
	}
}

// TestPolicyEffectivenessOrder runs the Section 5.2 incremental study over a
// representative subset and checks the paper's attribution: WakeAMAP is the
// step that fixes pbzip2, and BranchedWake only benefits OpenMP programs.
func TestPolicyEffectivenessOrder(t *testing.T) {
	var specs []programs.Spec
	for _, name := range []string{"pbzip2_compress", "histogram-pthread", "stl_accumulate", "convert_blur", "bt-l", "streamcluster"} {
		s, ok := programs.Find(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		specs = append(specs, s)
	}
	tab, err := experiment(t, "policies").Run(io.Discard, runner(), Args{Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	steps, benefited, _ := policyShifts(tab)
	if want := []string{"+BoostBlocked", "+CreateAll", "+CSWhole", "+WakeAMAP", "+BranchedWake"}; !slices.Equal(steps, want) {
		t.Fatalf("steps %v, want %v", steps, want)
	}
	if !slices.Contains(benefited[3], "pbzip2_compress") {
		t.Errorf("WakeAMAP should benefit pbzip2_compress; it benefited %v", benefited[3])
	}
	// BranchedWake's beneficiaries must all be OpenMP-structured programs
	// (the gomp barrier of Figure 3): in this subset, the ImageMagick, STL
	// and NPB entries.
	for _, b := range benefited[4] {
		if b == "pbzip2_compress" || b == "histogram-pthread" {
			t.Errorf("BranchedWake should only affect OpenMP programs, benefited %s", b)
		}
	}
}

// TestStabilityExperiment reproduces the Section 2 comparison: across eight
// pbzip2 input files, round-robin-based scheduling uses ONE schedule
// (prefix-stable), the logical-clock policy uses several — CoreDet used five.
func TestStabilityExperiment(t *testing.T) {
	tab, err := experiment(t, "stability").Run(io.Discard, &Runner{Params: workload.Params{Scale: 0.1}}, Args{})
	if err != nil {
		t.Fatal(err)
	}
	_, n, distinct := stabilityDistinct(tab)
	for _, m := range []string{QiThread().Name, VanillaRR().Name, Kendo().Name} {
		if n[m] != 8 {
			t.Errorf("%s: %d inputs recorded, want 8", m, n[m])
		}
	}
	if d := distinct[QiThread().Name]; d != 1 {
		t.Errorf("QiThread (round robin) should use one schedule for all inputs, got %d", d)
	}
	if d := distinct[VanillaRR().Name]; d != 1 {
		t.Errorf("vanilla round robin should use one schedule for all inputs, got %d", d)
	}
	if d := distinct[Kendo().Name]; d < 2 {
		t.Errorf("logical clock should be unstable across inputs, got %d distinct schedules", d)
	}
}

// TestScalabilitySmoke runs the Section 5.3 sweep and checks the variation
// metric is finite and the runs complete.
func TestScalabilitySmoke(t *testing.T) {
	tab, err := experiment(t, "scalability").Run(io.Discard, &Runner{Params: workload.Params{Scale: 0.1, InputSeed: 42}}, Args{})
	if err != nil {
		t.Fatal(err)
	}
	names, dev := scalabilityDeviations(tab)
	if !slices.Equal(names, []string{"barnes", "bodytrack", "histogram", "convert_shear", "pbzip2_decompress"}) {
		t.Fatalf("programs %v", names)
	}
	for mode, devs := range dev {
		for i, d := range devs {
			if d < 0 || d != d { // NaN check
				t.Errorf("%s %s: bad deviation %v", names[i], mode, d)
			}
		}
	}
}

// TestSection51OnSubset exercises the Figure 8 pipeline end to end on one
// suite and checks the summary bookkeeping.
func TestSection51OnSubset(t *testing.T) {
	r := &Runner{Params: workload.Params{Scale: 0.1, InputSeed: 42}}
	tab, err := experiment(t, "fig8").Run(io.Discard, r, Args{Specs: programs.BySuite("phoenix")})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.rows) != 14 {
		t.Fatalf("phoenix suite rows = %d", len(tab.rows))
	}
	counts, slower, _ := section51(tab)
	if counts.Total != 14 {
		t.Fatalf("summary total = %d", counts.Total)
	}
	if counts.Comparable < 10 {
		t.Errorf("QiThread should be comparable to Parrot on most phoenix programs: %+v slower=%v", counts, slower)
	}
	var sb strings.Builder
	tab.Fprint(&sb)
	if !strings.Contains(sb.String(), "comparable") {
		t.Errorf("summary rendering broken: %q", sb.String())
	}
}

// TestDeterministicMeasurement asserts what makes the harness noise-free:
// every scheduling mode, including the ideal-parallel baseline, yields the
// same virtual makespan on every run.
func TestDeterministicMeasurement(t *testing.T) {
	spec, _ := programs.Find("ferret")
	for _, mode := range []Mode{Nondet(), VanillaRR(), ParrotSoft(), QiThread(), Kendo()} {
		app := spec.Build(workload.Params{Scale: 0.1, InputSeed: 3})
		var ref int64
		for i := 0; i < 3; i++ {
			rt := qithread.New(mode.Cfg)
			app(rt)
			v := rt.VirtualMakespan()
			if i == 0 {
				ref = v
			} else if v != ref {
				t.Errorf("%s: virtual makespan varies across runs: %d vs %d", mode.Name, v, ref)
				break
			}
		}
	}
}

// TestModeByName pins every -mode name the tools accept to the configuration
// it has always selected (qitrace and qireplay each used to carry a copy of
// this table).
func TestModeByName(t *testing.T) {
	rr := qithread.RoundRobin
	for name, want := range map[string]qithread.Config{
		"non-det":          {Mode: qithread.VirtualParallel},
		"nondet":           {Mode: qithread.VirtualParallel},
		"virtual-parallel": {Mode: qithread.VirtualParallel},
		"no-hint":          {Mode: rr},
		"vanilla":          {Mode: rr},
		"round-robin":      {Mode: rr},
		"no-pcs-hint":      {Mode: rr, SoftBarriers: true},
		"parrot":           {Mode: rr, SoftBarriers: true},
		"hinted":           {Mode: rr, SoftBarriers: true, PCS: true},
		"parrot-pcs":       {Mode: rr, SoftBarriers: true, PCS: true},
		"all-policies":     {Mode: rr, Policies: qithread.AllPolicies},
		"qithread":         {Mode: rr, Policies: qithread.AllPolicies},
		"logical-clock":    {Mode: qithread.LogicalClock},
		"kendo":            {Mode: qithread.LogicalClock},
	} {
		got, ok := ModeByName(name)
		if !ok || !reflect.DeepEqual(got.Cfg, want) {
			t.Errorf("ModeByName(%q) = %+v, %v; want config %+v", name, got, ok, want)
		}
	}
	for _, m := range []Mode{Nondet(), VanillaRR(), ParrotSoft(), ParrotPCS(), QiThread(), Kendo()} {
		if got, ok := ModeByName(m.Name); !ok || got.Name != m.Name {
			t.Errorf("ModeByName(%q) = %q, %v; every standard mode answers to its own name", m.Name, got.Name, ok)
		}
	}
	for _, name := range []string{"", "QiThread", "policies:CSWhole"} {
		if _, ok := ModeByName(name); ok {
			t.Errorf("ModeByName(%q) accepted", name)
		}
	}
}
