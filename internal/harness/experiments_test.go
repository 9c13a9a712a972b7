package harness

import (
	"bytes"
	"strings"
	"testing"

	"qithread/internal/programs"
	"qithread/internal/workload"
)

func experiment(t testing.TB, name string) *Experiment {
	t.Helper()
	for i := range Experiments {
		if Experiments[i].Name == name {
			return &Experiments[i]
		}
	}
	t.Fatalf("no experiment %q", name)
	return nil
}

// TestExperiments runs every registered arm the way `qibench -experiment X
// -scale 0.02` does. A prose arm has to print a report and no table. A
// tabular arm prints a title line and then its table, and the table has to
// survive the trip through a file: WriteCSV → ReadCSV → Fprint is byte for
// byte what the arm printed below its title — rows and aggregate lines — which
// is what makes `qistat f.csv` agree with the qibench run that wrote f.csv,
// down to the §5.1 counts, which sit on thresholds a rounded cell can cross.
// The soak arm records 8,000 requests: at MaxBatch 64 that is at least 125
// admission epochs, so its checkpoint at epoch 64 is always taken and
// reported.
func TestExperiments(t *testing.T) {
	r := &Runner{Params: workload.Params{Scale: 0.02, InputSeed: 42}}
	args := Args{Specs: programs.All(), SoakEvents: 8000}
	for i := range Experiments {
		e := &Experiments[i]
		t.Run(e.Name, func(t *testing.T) {
			var printed bytes.Buffer
			tab, err := e.Run(&printed, r, args)
			if err != nil {
				t.Fatal(err)
			}
			title, body, _ := strings.Cut(printed.String(), "\n")
			if !strings.HasPrefix(title, "=== ") || body == "" {
				t.Fatalf("printed %q: want a title line and a report", printed.String())
			}
			if e.Name == "soak" && !strings.Contains(body, "\nckpts: ") {
				t.Fatalf("the soak report has no ckpts: line:\n%s", body)
			}
			if (tab != nil) != (e.header != "") {
				t.Fatalf("returned table %v, declared header %q", tab, e.header)
			}
			if tab == nil {
				return
			}
			if len(tab.rows) == 0 {
				t.Fatal("empty table")
			}
			var file, reprinted bytes.Buffer
			if err := tab.WriteCSV(&file); err != nil {
				t.Fatal(err)
			}
			if got, _, _ := strings.Cut(file.String(), "\n"); got != e.header {
				t.Fatalf("wrote header %q, declared %q", got, e.header)
			}
			back, err := ReadCSV(&file)
			if err != nil {
				t.Fatal(err)
			}
			if back.exp != e {
				t.Fatalf("read back as a %s", back)
			}
			back.Fprint(&reprinted)
			if reprinted.String() != body {
				t.Errorf("the table read back prints\n%s\nthe arm printed\n%s", reprinted.String(), body)
			}
		})
	}
}

// TestReadCSVStrict: what the reader refuses, each with the line it is on.
func TestReadCSVStrict(t *testing.T) {
	ingress := experiment(t, "ingress").header
	for name, c := range map[string]struct{ in, want string }{
		"empty file":        {"", "csv header"},
		"unknown header":    {"program,suite,no-pcs-hint_ms,all-policies_ms\nfoo,bar,1.0,2.0\n", "not the table of any experiment"},
		"reordered header":  {"queue_cap,max_batch" + ingress[len("max_batch,queue_cap"):] + "\n", "not the table of any experiment"},
		"short row":         {ingress + "\n1,0,12,12,0,13,0.1,100,0.9,0.0\n4,0,12\n", "line 3"},
		"long row":          {ingress + "\n1,0,12,12,0,13,0.1,100,0.9,0.0,7\n", "line 2"},
		"non-numeric cell":  {ingress + "\n1,0,12,12,0,13,0.1,100,0.9,0.0\n4,default,12,12,0,4,0.1,100,3.0,0.0\n", `line 3: column queue_cap: "default" is not a number`},
		"empty numeric":     {ingress + "\n1,0,12,12,0,13,,100,0.9,0.0\n", "line 2: column wall_ms"},
		"bare quote":        {ingress + "\n1,0,12,1\"2,0,13,0.1,100,0.9,0.0\n", "line 2"},
		"label column only": {experiment(t, "domains").header + "\n7,1,0,0.1,0.1,x\n", "line 2: column speedup"},
	} {
		if _, err := ReadCSV(strings.NewReader(c.in)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, c.want)
		}
	}
	tab, err := ReadCSV(strings.NewReader(experiment(t, "fig8").header + "\np,s,1.5,-,-,3.0,2.0,-,-,1.5,1.0\n"))
	if err != nil || tab.String() != "fig8 table, 1 rows" {
		t.Fatalf("a well-formed file with \"-\" cells: %v, %v", tab, err)
	}
}

// FuzzReadCSV: whatever the bytes, ReadCSV returns an error or a table whose
// every row has the declared field count, parses in its numeric columns, and
// prints — summary lines included — without panicking.
func FuzzReadCSV(f *testing.F) {
	for _, e := range Experiments {
		if e.header != "" {
			f.Add([]byte(e.header + "\n"))
		}
	}
	f.Add([]byte(experiment(f, "ingress").header + "\n1,0,12,12,0,13,0.103883,115515,0.9,0.0\n64,8,12,8,4,2,0.037151,215337,4.0,33.3\n"))
	f.Add([]byte(experiment(f, "controlplane").header + "\n8,1,0,24,0,8,8,0,26,0,8,190,1,0.146547,164\n8,1,2,24,0,8,7,1,26,0,8,231,1,NaN,-\n"))
	f.Add([]byte(experiment(f, "counters").header + "\nfoo,CSWhole,0,0,32,0,0\nfoo,\"round,robin\",129,0,0,0,0\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		tab, err := ReadCSV(bytes.NewReader(b))
		if err != nil {
			return
		}
		for _, row := range tab.rows {
			if len(row) != len(tab.cols) {
				t.Fatalf("row %q has %d fields, header %d", row, len(row), len(tab.cols))
			}
		}
		var out bytes.Buffer
		tab.Fprint(&out)
		if err := tab.WriteCSV(&out); err != nil {
			t.Fatal(err)
		}
	})
}
