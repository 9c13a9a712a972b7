package qithread_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"qithread/internal/harness"
)

// TestInventory: the cmd/ binaries, the internal/ packages and the qibench
// experiments are exactly the rows of the three tables of DESIGN.md §4.14, in
// order, where each names the EXPERIMENTS.md entry, test or command that needs
// it, and the non-test files of internal/core the rows of §4.1's file table,
// each with what it owns; every E<n> the section cites is an entry of EXPERIMENTS.md and every
// Test, Fuzz or Benchmark function it cites exists. The experiments table and
// README.md's command block repeat harness.Experiments and are held to it. A
// new binary, package or experiment is a deliberate edit in two places; one
// that cannot name what needs it does not belong (the §4.11 rule, applied to
// the layers above the runtime).
// It also holds EXPERIMENTS.md to 115,000 bytes and DESIGN.md to 57,000,
// EXPERIMENTS.md's entries to an unbroken run from E1 to the newest, and the
// examples to the public API: none imports internal/harness, and quickstart
// imports no internal package. And every exported function and method a
// non-test file of the root package declares is called somewhere in the
// module, tests included, outside its own declaration: an export nothing
// calls is a second way to do something, or a way to do nothing. Deadlocks
// are reported from exactly the two detectors §4.1 names, and every failure
// text of the core is built by its one report builder (§4.1).
func TestInventory(t *testing.T) {
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	design := read("DESIGN.md")
	_, section, ok := strings.Cut(design, "\n### 4.14 ")
	if !ok {
		t.Fatal("DESIGN.md has no §4.14")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	firstColumn := func(prefix string) []string {
		var out []string
		for _, m := range regexp.MustCompile("(?m)^\\| `"+prefix+"([\\w/]+)` \\|").FindAllStringSubmatch(section, -1) {
			out = append(out, m[1])
		}
		return out
	}

	// Directories that hold Go source, relative to root, sorted.
	goDirs := func(root string) []string {
		var out []string
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			if rel, _ := filepath.Rel(root, filepath.Dir(path)); !slices.Contains(out, rel) {
				out = append(out, rel)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(out)
		return out
	}
	for _, root := range []string{"cmd", "internal"} {
		if have, documented := goDirs(root), firstColumn(root+"/"); !slices.Equal(have, documented) {
			t.Errorf("%s/ holds %v,\nDESIGN.md §4.14 documents %v", root, have, documented)
		}
	}

	_, turn, ok := strings.Cut(design, "\n### 4.1 ")
	if !ok {
		t.Fatal("DESIGN.md has no §4.1")
	}
	turn, _, _ = strings.Cut(turn, "\n### ")
	var coreFiles, coreDocumented []string
	entries, err := os.ReadDir("internal/core")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			coreFiles = append(coreFiles, name)
		}
	}
	for _, m := range regexp.MustCompile("(?m)^\\| `(\\w+\\.go)` \\|").FindAllStringSubmatch(turn, -1) {
		coreDocumented = append(coreDocumented, m[1])
	}
	if !slices.Equal(coreFiles, coreDocumented) {
		t.Errorf("internal/core holds %v,\nDESIGN.md §4.1 documents %v", coreFiles, coreDocumented)
	}

	readme := read("README.md")
	var rows []string
	for _, e := range harness.Experiments {
		inAll := "yes"
		if e.NotInAll != "" {
			inAll = "no: " + e.NotInAll
		}
		rows = append(rows, fmt.Sprintf("| `-experiment %s` | %s | %s | %s |", e.Name, e.Entry, inAll, e.Doc))
		if !regexp.MustCompile("(?m)^go run \\./cmd/qibench -experiment " + e.Name + "\\b.*# " + regexp.QuoteMeta(e.Doc) + "$").MatchString(readme) {
			t.Errorf("README.md has no line `go run ./cmd/qibench -experiment %s ... # %s`", e.Name, e.Doc)
		}
	}
	if want := strings.Join(rows, "\n") + "\n"; !strings.Contains(section, want) {
		t.Errorf("DESIGN.md §4.14 does not hold the experiments table harness.Experiments generates:\n%s", want)
	}

	experiments := read("EXPERIMENTS.md")
	for _, e := range regexp.MustCompile(`\bE\d+\b`).FindAllString(section, -1) {
		if !strings.Contains(experiments, "\n## "+e+" — ") {
			t.Errorf("DESIGN.md §4.14 cites %s, EXPERIMENTS.md has no such entry", e)
		}
	}

	// The design record stays at the size a reader reads whole: an entry
	// grows by compressing an older one to its claim, result and commit, and
	// a compression keeps the entry's heading, so E1 to the newest entry
	// have no gap.
	for _, doc := range []struct {
		name, text string
		max        int
	}{{"EXPERIMENTS.md", experiments, 115_000}, {"DESIGN.md", design, 57_000}} {
		if len(doc.text) > doc.max {
			t.Errorf("%s is %d bytes, over its budget of %d", doc.name, len(doc.text), doc.max)
		}
	}
	last := 0
	for _, m := range regexp.MustCompile(`(?m)^## E(\d+) — `).FindAllStringSubmatch(experiments, -1) {
		n, _ := strconv.Atoi(m[1])
		last = max(last, n)
	}
	for n := 1; n <= last; n++ {
		if !strings.Contains(experiments, fmt.Sprintf("\n## E%d — ", n)) {
			t.Errorf("EXPERIMENTS.md has entries up to E%d but no E%d", last, n)
		}
	}

	var tests []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, "_test.go") {
			for _, m := range regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w+)\(`).FindAllStringSubmatch(read(path), -1) {
				tests = append(tests, m[1])
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*`).FindAllString(section, -1) {
		if !slices.Contains(tests, name) {
			t.Errorf("DESIGN.md §4.14 cites %s, no _test.go file declares it", name)
		}
	}

	// Calls are matched by name, the function's or the method's, as a Go
	// reader searching the tree would; a call inside a function of the same
	// name, the function itself or a namesake it forwards to, does not count.
	calls := map[string]bool{}
	var exported, reporters, renderers, prefixes []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		root := filepath.Dir(path) == "." && !strings.HasSuffix(path, "_test.go")
		for _, decl := range f.Decls {
			self := ""
			if fn, ok := decl.(*ast.FuncDecl); ok {
				self = fn.Name.Name
				if root && fn.Name.IsExported() {
					exported = append(exported, self)
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					name := ""
					switch fun := call.Fun.(type) {
					case *ast.Ident:
						name = fun.Name
					case *ast.SelectorExpr:
						name = fun.Sel.Name
					}
					if name != self {
						calls[name] = true
					}
					if dir := filepath.Dir(path); name == "ReportDeadlock" && (dir == "." || dir == "internal/core") && !strings.HasSuffix(path, "_test.go") {
						reporters = append(reporters, filepath.ToSlash(path)+" "+self)
					}
					if (name == "dumpLocked" || name == "historyLocked") && filepath.Dir(path) == "internal/core" && !strings.HasSuffix(path, "_test.go") {
						renderers = append(renderers, filepath.ToSlash(path)+" "+self+" calls "+name)
					}
				}
				if dir := filepath.Dir(path); (dir == "." || dir == "internal/core") && !strings.HasSuffix(path, "_test.go") {
					switch n := n.(type) {
					case *ast.BasicLit:
						if n.Kind == token.STRING && (strings.Contains(n.Value, "deterministic deadlock") || strings.Contains(n.Value, "replay divergence")) {
							prefixes = append(prefixes, filepath.ToSlash(path)+" "+self+" "+n.Value)
						}
					case *ast.Ident:
						if n.Name == "ErrReplayDivergence" {
							prefixes = append(prefixes, filepath.ToSlash(path)+" "+self+" ErrReplayDivergence")
						}
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range exported {
		if !calls[name] {
			t.Errorf("the root package exports %s, and nothing in the module calls it", name)
		}
	}

	// One detector per kind of deadlock (DESIGN.md §4.1): a domain's own is
	// found by its driver, which has nothing left to resume, and one across
	// domains by the XPipe park count, when a domain parks or finishes.
	slices.Sort(reporters)
	if want := []string{"domain.go finished", "internal/core/host.go stuck", "pipe.go wait"}; !slices.Equal(reporters, want) {
		t.Errorf("ReportDeadlock is called from %q, want only %q", reporters, want)
	}

	// One failure report (DESIGN.md §4.1): in the core only the builder,
	// reportLocked, renders the scheduler state and the flight recorder, and
	// nothing in the core or the root package but report.go spells out the
	// prefix of a deadlock or a divergence.
	if want := []string{"internal/core/report.go reportLocked calls dumpLocked", "internal/core/report.go reportLocked calls historyLocked"}; !slices.Equal(renderers, want) {
		t.Errorf("the scheduler state and its last operations are rendered from %q, want only %q", renderers, want)
	}
	for _, p := range prefixes {
		if !strings.HasPrefix(p, "internal/core/report.go ") {
			t.Errorf("%s: a failure prefix outside the report builder (internal/core/report.go)", p)
		}
	}

	// The internal/core row: a scheduler has one owner, so nothing in it is
	// atomic. The root package: a Nondet wrapper is its native sync call and
	// keeps no virtual clock, so only runtime.go's thread counter, which
	// Create bumps from any domain, is atomic.
	for _, c := range []struct{ glob, allowed, rule string }{
		{"internal/core/*.go", "", "no file of internal/core does"},
		{"*.go", "runtime.go", "no file of the root package but runtime.go does"},
	} {
		files, err := filepath.Glob(c.glob)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") || path == c.allowed {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if imp.Path.Value == `"sync/atomic"` {
					t.Errorf("%s imports sync/atomic; DESIGN.md §4.14 says %s", path, c.rule)
				}
			}
		}
	}

	// The examples show the library, not the harness: qibench runs every
	// experiment of internal/harness, so no example imports it, and
	// quickstart, the tour of the public API, imports no internal package.
	err = filepath.WalkDir("examples", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		quickstart := strings.HasPrefix(filepath.ToSlash(path), "examples/quickstart/")
		for _, imp := range f.Imports {
			pkg, _ := strconv.Unquote(imp.Path.Value)
			if pkg == "qithread/internal/harness" || quickstart && strings.HasPrefix(pkg, "qithread/internal/") {
				t.Errorf("%s imports %s; an example uses the public API, and qibench runs the experiments", path, pkg)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// No exported function or method of internal/core has a sync type in its
	// signature: a caller's lock is released by the caller or inside the core,
	// never handed across, so the core's entry lock can go without an API
	// change (DESIGN.md §4.1). That lock and the unhosted grant wait are the
	// only sync in the core: sched.go alone imports it, and names it only as
	// the types of the fields mu and granted. And internal/core names no
	// scheduling decision of its own: no type Mode beside policy.BaseKind, and
	// no type or constant that is an internal/policy name under a second one,
	// but the Choice that benchmark/ compiles against (DESIGN.md §4.2).
	isPolicyName := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		return ok && pkg.Name == "policy"
	}
	files, err := filepath.Glob("internal/core/*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"sync"` && path != "internal/core/sched.go" {
				t.Errorf("%s imports sync; in internal/core only sched.go does, for the unhosted mode (DESIGN.md §4.1)", path)
			}
		}
		unhosted := map[ast.Expr]bool{} // the types of the fields mu and granted
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				if len(n.Names) == 1 && (n.Names[0].Name == "mu" || n.Names[0].Name == "granted") {
					unhosted[n.Type] = true
				}
			case *ast.SelectorExpr:
				if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "sync" && !unhosted[n] {
					t.Errorf("%s: sync.%s outside the types of the fields mu and granted", path, n.Sel.Name)
				}
			}
			return true
		})
		for _, decl := range f.Decls {
			if gen, ok := decl.(*ast.GenDecl); ok {
				for _, spec := range gen.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.Name == "Mode" {
							t.Errorf("%s declares type Mode; the base policy is policy.BaseKind", path)
						} else if isPolicyName(spec.Type) && spec.Name.Name != "Choice" {
							t.Errorf("%s: type %s is a second name for an internal/policy type", path, spec.Name.Name)
						}
					case *ast.ValueSpec:
						for i, v := range spec.Values {
							if gen.Tok == token.CONST && isPolicyName(v) {
								t.Errorf("%s: constant %s is a second name for an internal/policy constant", path, spec.Names[i].Name)
							}
						}
					}
				}
			}
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			ast.Inspect(fn.Type, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "sync" {
						t.Errorf("%s: exported %s takes or returns sync.%s", path, fn.Name.Name, sel.Sel.Name)
					}
				}
				return true
			})
		}
	}

	// The unhosted mode's tests are one file. Everywhere else in the core
	// and checkpoint tests, a function that registers threads on a scheduler
	// hosts it, so deleting the mode deletes that file and no other test.
	var hostedTests []string
	for _, glob := range []string{"internal/core/*_test.go", "internal/ckpt/*_test.go"} {
		files, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		hostedTests = append(hostedTests, files...)
	}
	for _, path := range hostedTests {
		if path == "internal/core/unhosted_test.go" {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			calls := map[string]bool{}
			ast.Inspect(fn, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						calls[sel.Sel.Name] = true
					}
				}
				return true
			})
			if (calls["Register"] || calls["RegisterIn"]) && !calls["HostThreads"] {
				t.Errorf("%s: %s registers threads on a scheduler it does not host; a test of the unhosted mode belongs in internal/core/unhosted_test.go", path, fn.Name.Name)
			}
		}
	}
}

// TestDocCommands: every single-backtick span of README.md and EXPERIMENTS.md
// that runs `go test -bench` names only benchmarks that some `func
// Benchmark...` of the module starts with, and every span that runs `qibench
// -experiment` names a row of harness.Experiments (or all), so a
// "Regenerate:" line still regenerates what it says. Fenced blocks are not
// spans; a span may wrap a line.
func TestDocCommands(t *testing.T) {
	var benchmarks []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // build caches, not the module's source
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range regexp.MustCompile(`(?m)^func (Benchmark\w*)\(`).FindAllSubmatch(src, -1) {
			benchmarks = append(benchmarks, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	arms := []string{"all"}
	for _, e := range harness.Experiments {
		arms = append(arms, e.Name)
	}
	var (
		fence      = regexp.MustCompile("(?ms)^```.*?^```")
		span       = regexp.MustCompile("`([^`]+)`")
		benchFlag  = regexp.MustCompile(`^go test .*-bench[= ](\S+)`)
		benchName  = regexp.MustCompile(`Benchmark\w*`)
		experiment = regexp.MustCompile(`^qibench .*-experiment[= ](\S+)`)
	)
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range span.FindAllSubmatch(fence.ReplaceAll(text, nil), -1) {
			cmd := strings.Join(strings.Fields(string(m[1])), " ")
			if f := benchFlag.FindStringSubmatch(cmd); f != nil {
				for _, name := range benchName.FindAllString(f[1], -1) {
					if !slices.ContainsFunc(benchmarks, func(b string) bool { return strings.HasPrefix(b, name) }) {
						t.Errorf("%s: `%s`: no func %s... in the module", doc, cmd, name)
					}
				}
			}
			if f := experiment.FindStringSubmatch(cmd); f != nil && !slices.Contains(arms, f[1]) {
				t.Errorf("%s: `%s`: %s is not a row of harness.Experiments", doc, cmd, f[1])
			}
		}
	}
}

// TestArtifactTable: the file-format headers ("qithread-<family> v<version>")
// are string literals that each occur exactly once in the non-test source
// outside benchmark/ — one declaration per header, no second copy for a tool
// to compare against — and the table of on-disk artifacts in DESIGN.md §4.7
// names exactly that set. A new, renamed or retired header is a deliberate
// edit in two places.
func TestArtifactTable(t *testing.T) {
	header := regexp.MustCompile(`^qithread-[a-z]+ v\w+$`)
	declared := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case path == "benchmark":
			return fs.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && header.MatchString(s) {
					declared[s] = append(declared[s], fset.Position(lit.Pos()).String())
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for h, at := range declared {
		if len(at) != 1 {
			t.Errorf("header %q is spelled out %d times, want one declaration: %v", h, len(at), at)
		}
	}

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "\n### 4.7 ")
	if !ok {
		t.Fatal("DESIGN.md has no §4.7")
	}
	section, _, _ = strings.Cut(section, "\n### ")
	documented := map[string]bool{}
	for _, row := range regexp.MustCompile(`(?m)^\|.*\|$`).FindAllString(section, -1) {
		for _, m := range regexp.MustCompile("`(qithread-[a-z]+ v\\w+)`").FindAllStringSubmatch(row, -1) {
			documented[m[1]] = true
		}
	}
	for h, at := range declared {
		if !documented[h] {
			t.Errorf("header %q (%s) has no row in the artifact table of DESIGN.md §4.7", h, at[0])
		}
	}
	for h := range documented {
		if declared[h] == nil {
			t.Errorf("DESIGN.md §4.7 lists header %q, which the source does not declare", h)
		}
	}
}
