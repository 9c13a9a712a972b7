package harness

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qithread"
	"qithread/internal/programs"
	"qithread/internal/trace"
	"qithread/internal/workload"
)

// The trace-compatibility suite pins the exact deterministic schedule of
// every catalog program under every scheduling mode and policy set. The
// golden hashes were generated from the seed bitmask implementation, so any
// scheduler or policy-engine refactor that alters a single event in a single
// schedule — an extra wake-boost, a reordered pick, a different retention
// decision — fails here with the first diverging (program, config) pair.
//
// Regenerate with:
//
//	go test ./internal/harness -run TestTraceCompatibility -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/trace_golden.csv from the current build")

const goldenPath = "testdata/trace_golden.csv"

type compatConfig struct {
	Name string
	Cfg  qithread.Config
}

// compatConfigs enumerates the scheduling configurations of the matrix: the
// base modes, the Parrot hint configurations, each semantics-aware policy
// alone, and each leave-one-out set.
func compatConfigs() []compatConfig {
	rr := func(p qithread.Policy) qithread.Config {
		return qithread.Config{Mode: qithread.RoundRobin, Policies: p, Record: true}
	}
	cfgs := []compatConfig{
		{"rr-vanilla", rr(qithread.NoPolicies)},
		{"rr-all", rr(qithread.AllPolicies)},
		{"rr-soft", qithread.Config{Mode: qithread.RoundRobin, SoftBarriers: true, Record: true}},
		{"rr-soft-pcs", qithread.Config{Mode: qithread.RoundRobin, SoftBarriers: true, PCS: true, Record: true}},
		{"logical-clock", qithread.Config{Mode: qithread.LogicalClock, Record: true}},
		{"virtual-parallel", qithread.Config{Mode: qithread.VirtualParallel, Record: true}},
	}
	singles := []struct {
		name string
		p    qithread.Policy
	}{
		{"BoostBlocked", qithread.BoostBlocked},
		{"CreateAll", qithread.CreateAll},
		{"CSWhole", qithread.CSWhole},
		{"WakeAMAP", qithread.WakeAMAP},
		{"BranchedWake", qithread.BranchedWake},
	}
	for _, s := range singles {
		cfgs = append(cfgs, compatConfig{"rr-only-" + s.name, rr(s.p)})
	}
	for _, s := range singles {
		cfgs = append(cfgs, compatConfig{"rr-minus-" + s.name, rr(qithread.AllPolicies &^ s.p)})
	}
	return cfgs
}

// deepPrograms is the subset measured under the FULL config matrix: at least
// one program per suite plus the programs the paper singles out (pbzip2's
// producer/consumer, histogram's create loop, pfscan's lock convoy, the
// OpenMP-style branched barrier of convert, vips' per-consumer condition
// variables, x264's pipeline).
var deepPrograms = []string{
	"pbzip2_compress", "pbzip2_decompress", "histogram-pthread", "pfscan",
	"convert_blur", "vips", "x264", "barnes", "ep-l", "ferret",
	"word_count", "stl_sort", "streamcluster", "bt-l", "redis",
}

// baseConfigs is the slice of the matrix applied to EVERY catalog program.
func baseConfigNames() map[string]bool {
	return map[string]bool{
		"rr-vanilla": true, "rr-all": true, "rr-soft": true,
		"logical-clock": true, "virtual-parallel": true,
	}
}

var compatParams = workload.Params{Scale: 0.1, InputSeed: 42}

// traceFingerprint runs spec once under cfg and fingerprints the execution:
// the serialized schedule hash, the event count, the virtual makespan, and
// the program's output checksum.
func traceFingerprint(spec programs.Spec, cfg qithread.Config) (hash string, events int, makespan int64, output uint64) {
	app := spec.Build(compatParams)
	rt := qithread.New(cfg)
	output = app(rt)
	ev := rt.Trace()
	var sb strings.Builder
	if err := trace.Save(&sb, ev); err != nil {
		panic(err)
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:8]), len(ev), rt.VirtualMakespan(), output
}

func goldenKey(program, config string) string { return program + "/" + config }

func goldenLine(program, config, hash string, events int, makespan int64, output uint64) string {
	return fmt.Sprintf("%s,%s,%s,%d,%d,%d", program, config, hash, events, makespan, output)
}

// collectFingerprints runs the matrix: every catalog program under the base
// configurations, the deep programs under all of them.
func collectFingerprints(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	deep := map[string]bool{}
	for _, p := range deepPrograms {
		if _, ok := programs.Find(p); !ok {
			t.Fatalf("deep program %q missing from catalog", p)
		}
		deep[p] = true
	}
	base := baseConfigNames()
	for _, spec := range programs.All() {
		for _, cc := range compatConfigs() {
			if !deep[spec.Name] && !base[cc.Name] {
				continue
			}
			hash, events, makespan, output := traceFingerprint(spec, cc.Cfg)
			out[goldenKey(spec.Name, cc.Name)] = goldenLine(spec.Name, cc.Name, hash, events, makespan, output)
		}
	}
	return out
}

// TestTraceCompatibility asserts the build produces the exact schedules of the
// seed bitmask build for all catalog programs under all modes × policy sets.
// Every configuration is hosted, every thread of a domain on one goroutine
// (internal/core/host.go); the seed build ran every thread on a goroutine of
// its own, and there is no hosted flavour of a schedule. The ad-hoc busy-wait
// programs (canneal, x264) poll an atomic a peer stores outside any scheduled
// operation; hosted, the peer runs only when the poller yields the turn, so
// their schedules too are the same at any GOMAXPROCS.
func TestTraceCompatibility(t *testing.T) {
	got := collectFingerprints(t)
	if *updateGolden {
		updateGoldenFile(t, got)
		return
	}
	want := readGolden(t)
	if len(want) == 0 {
		t.Fatalf("no golden fingerprints in %s; run with -update-golden", goldenPath)
	}
	compareGolden(t, want, got)
}

// updateGoldenFile rewrites the golden file from got.
func updateGoldenFile(t *testing.T, got map[string]string) {
	// Stable file order: catalog order × config order.
	var lines []string
	base := baseConfigNames()
	deep := map[string]bool{}
	for _, p := range deepPrograms {
		deep[p] = true
	}
	for _, spec := range programs.All() {
		for _, cc := range compatConfigs() {
			if !deep[spec.Name] && !base[cc.Name] {
				continue
			}
			lines = append(lines, got[goldenKey(spec.Name, cc.Name)])
		}
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	content := "program,config,trace_sha256_8,events,makespan,output\n" + strings.Join(lines, "\n") + "\n"
	if err := os.WriteFile(goldenPath, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d fingerprints (%d keys) to %s", len(lines), len(got), goldenPath)
}

// compareGolden fails for every golden line got does not reproduce.
func compareGolden(t *testing.T, want, got map[string]string) {
	missing, mismatched := 0, 0
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			missing++
			t.Errorf("fingerprint for %s no longer produced (program or config removed?)", k)
			continue
		}
		if g != w {
			mismatched++
			if mismatched <= 10 {
				t.Errorf("schedule diverged for %s:\n  golden: %s\n  got:    %s", k, w, g)
			}
		}
	}
	if mismatched > 10 {
		t.Errorf("... and %d further divergences", mismatched-10)
	}
	if missing == 0 && mismatched == 0 {
		t.Logf("%d schedules byte-identical to the seed build", len(want))
	}
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("open golden: %v (run with -update-golden to create)", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if first {
			first = false
			continue // header
		}
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, ",", 3)
		if len(parts) < 3 {
			t.Fatalf("bad golden line %q", line)
		}
		out[goldenKey(parts[0], parts[1])] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
