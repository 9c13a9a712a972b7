// Command qistat reads everything the other tools write: schedule files (text
// "qithread-schedule v1/v2/v3" or binary v3b), ingress logs (text
// "qithread-ingress v1" or binary v2b), epoch checkpoints
// ("qithread-checkpoint v3b"; the v1b counter layout and the v2b policy-word
// layout are refused by name), the table any `qibench -experiment X -o` wrote,
// and qiexplore results directories. Every loader auto-detects its format, so
// the tool only has to sniff which FAMILY a path belongs to.
//
// Usage:
//
//	qistat [-v] path...                one summary line per path — kind, counts and hash
//	                                   commitments; a table or an explore directory is
//	                                   then printed in full, -v adds per-thread, per-epoch
//	                                   and per-domain detail for the recorded artifacts
//	qistat -explore dir                the same for a directory, insisting it is one
//	qistat verify path...              fully decode each; the summary line only, exit
//	                                   nonzero on the first corrupt one
//	qistat convert -to binary|text -o out in
//	                                   re-encode a schedule or ingress log across formats
//
// A table prints exactly as qibench printed it, aggregate lines included:
// both go through harness.Table. convert is the migration path for existing
// recordings: text logs from old runs shrink to the compact binary framing
// (and back, for eyeballing) without touching their semantics — a converted
// schedule replays to the same fingerprint, a converted ingress log admits the
// same epochs.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"qithread/internal/ckpt"
	"qithread/internal/core"
	"qithread/internal/harness"
	"qithread/internal/ingress"
	"qithread/internal/trace"
)

func main() {
	args := os.Args[1:]
	detail, explore := summary, false
	switch {
	case len(args) > 0 && args[0] == "convert":
		fs := flag.NewFlagSet("convert", flag.ExitOnError)
		to := fs.String("to", "binary", "target encoding: binary or text")
		out := fs.String("o", "", "output path (required)")
		fs.Parse(args[1:])
		if *out == "" || fs.NArg() != 1 || (*to != "binary" && *to != "text") {
			usage()
		}
		if err := convert(os.Stdout, *to, *out, fs.Arg(0)); err != nil {
			fatal(fs.Arg(0), err)
		}
		return
	case len(args) > 0 && args[0] == "verify":
		detail, args = lineOnly, args[1:]
	case len(args) > 0 && args[0] == "-v":
		detail, args = verbose, args[1:]
	case len(args) > 0 && args[0] == "-explore":
		explore, args = true, args[1:]
	}
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		usage()
	}
	for _, path := range args {
		if err := describe(os.Stdout, path, detail, explore); err != nil {
			fatal(path, err)
		}
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  qistat [-v] path...        schedule, ingress log, checkpoint, qibench -o table or qiexplore directory
  qistat -explore dir
  qistat verify path...
  qistat convert -to binary|text -o out in`)
	os.Exit(2)
}

func fatal(path string, err error) {
	fmt.Fprintf(os.Stderr, "qistat: %s: %v\n", path, err)
	os.Exit(1)
}

// detail is how much describe prints after a path's summary line.
type detail int

const (
	lineOnly detail = iota // verify
	summary                // plus the body of a table or an explore directory
	verbose                // plus the detail lines of a recorded artifact
)

// The artifact families, told apart by sniff from the header line.
const (
	schedule   = "schedule"
	explored   = "explored schedule" // text v3: events plus the decision log of the explored run
	ingressLog = "ingress log"
	checkpoint = "checkpoint"
	table      = "table" // anything else: held to a qibench CSV header by harness.ReadCSV
)

func sniff(b []byte) string {
	head, _, _ := bytes.Cut(b, []byte("\n"))
	switch {
	case string(bytes.TrimSpace(head)) == "qithread-schedule v3": // trimmed as the loaders trim it
		return explored
	case bytes.HasPrefix(head, []byte("qithread-schedule ")):
		return schedule
	case bytes.HasPrefix(head, []byte("qithread-ingress ")):
		return ingressLog
	case bytes.HasPrefix(head, []byte("qithread-checkpoint ")):
		return checkpoint
	}
	return table
}

// describe fully decodes one path and prints its summary line, then as much
// more as d asks for.
func describe(w io.Writer, path string, d detail, explore bool) error {
	if fi, err := os.Stat(path); explore || (err == nil && fi.IsDir()) {
		return describeExplore(w, path, d)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	switch kind := sniff(b); kind {
	case schedule, explored:
		events, choices, err := loadSchedule(kind, b)
		if err != nil {
			return err
		}
		counts := fmt.Sprintf("%d events", len(events))
		if kind == explored {
			counts += fmt.Sprintf(", %d decisions", len(choices))
		}
		fmt.Fprintf(w, "%s: %s, %s, %d bytes, hash=%016x\n", path, kind, counts, len(b), trace.Hash(events))
		if d == verbose && len(events) > 0 {
			threads := map[int]bool{}
			ops := map[string]int{}
			for _, e := range events {
				threads[e.TID] = true
				ops[e.Op.String()]++
			}
			names := make([]string, 0, len(ops))
			for op := range ops {
				names = append(names, op)
			}
			sort.Strings(names)
			for i, op := range names {
				names[i] = fmt.Sprintf("%s:%d", op, ops[op])
			}
			fmt.Fprintf(w, "  threads=%d ops=%s\n", len(threads), strings.Join(names, " "))
		}
	case ingressLog:
		log, err := ingress.LoadLog(bytes.NewReader(b))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: ingress log, %d events in %d batches, %d bytes\n", path, log.Events(), len(log.Batches), len(b))
		if d == verbose && len(log.Batches) > 0 {
			fmt.Fprintf(w, "  epochs %d..%d\n", log.Batches[0].Epoch, log.Batches[len(log.Batches)-1].Epoch)
		}
	case checkpoint:
		rec, err := ckpt.Load(bytes.NewReader(b))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: checkpoint at epoch %d, %d bytes\n", path, rec.Epoch, len(b))
		if d == verbose {
			for _, dom := range rec.Domains {
				fmt.Fprintf(w, "  domain %d: turn=%d live=%d traced=%d hash=%016x\n",
					dom.DomainID, dom.Turns, dom.Live, dom.TraceLen, dom.TraceHash)
			}
			for _, g := range rec.Gateways {
				fmt.Fprintf(w, "  gateway: epoch=%d admitted=%d shed=%d admit=%016x shed=%016x\n",
					g.Epoch, g.Admitted, g.Shed, g.AdmitHash, g.ShedHash)
			}
			fmt.Fprintf(w, "  channels=%d app=%d bytes\n", len(rec.Channels), len(rec.App))
		}
	case table:
		t, err := harness.ReadCSV(bytes.NewReader(b))
		if err != nil {
			return fmt.Errorf("not a qithread artifact: %w", err)
		}
		fmt.Fprintf(w, "%s: %s\n", path, t)
		if d != lineOnly {
			t.Fprint(w)
		}
	}
	return nil
}

// loadSchedule keeps the decision log of an explored schedule, which
// trace.Load discards by design.
func loadSchedule(kind string, b []byte) ([]core.Event, []core.Choice, error) {
	if kind == explored {
		return trace.LoadExplored(bytes.NewReader(b))
	}
	events, err := trace.Load(bytes.NewReader(b))
	return events, nil, err
}

// convert re-encodes a schedule or an ingress log. An explored schedule keeps
// its decision log (text to text) or is refused: the binary format has no
// decision section, and a repro without its decisions no longer replays.
func convert(w io.Writer, to, out, in string) error {
	b, err := os.ReadFile(in)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	n := 0
	switch kind := sniff(b); kind {
	case schedule, explored:
		events, choices, err := loadSchedule(kind, b)
		switch {
		case err != nil:
			return err
		case kind == explored && to == "binary":
			return fmt.Errorf("an explored schedule (v3) carries %d decisions and the binary format (v3b) has no decision section; qireplay -schedule needs them, keep the file as text", len(choices))
		case kind == explored:
			err = trace.SaveExplored(&buf, events, choices)
		case to == "binary":
			err = trace.SaveBinary(&buf, events)
		default:
			err = trace.Save(&buf, events)
		}
		if err != nil {
			return err
		}
		n = len(events)
	case ingressLog:
		log, err := ingress.LoadLog(bytes.NewReader(b))
		if err != nil {
			return err
		}
		if to == "binary" {
			err = log.SaveBinary(&buf)
		} else {
			err = log.Save(&buf)
		}
		if err != nil {
			return err
		}
		n = log.Events()
	case checkpoint:
		return fmt.Errorf("checkpoints have a single format; nothing to convert")
	default:
		return fmt.Errorf("not a schedule or an ingress log (unrecognized header)")
	}
	if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %d events, %d -> %d bytes\n", out, n, len(b), buf.Len())
	return nil
}

// describeExplore reports a qiexplore results directory from its plain-text
// layout (runs.csv, seen.txt, frontier.txt, repro-*.sched): runs and failure
// breakdown per strategy, distinct-fingerprint coverage, the unexplored
// frontier's size and depth profile, and the emitted repro schedules.
func describeExplore(w io.Writer, dir string, d detail) error {
	b, err := os.ReadFile(filepath.Join(dir, "runs.csv"))
	if err != nil {
		return fmt.Errorf("not a qiexplore results directory (%v)", err)
	}
	type agg struct {
		runs, news, maxDepth, maxDecisions int
		outcomes                           map[string]int
	}
	order := []string{}
	byStrategy := map[string]*agg{}
	total := agg{outcomes: map[string]int{}}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "run,") {
			continue
		}
		cells := strings.SplitN(line, ",", 8)
		if len(cells) < 6 {
			continue
		}
		strategy, outcome := cells[1], cells[4]
		a := byStrategy[strategy]
		if a == nil {
			a = &agg{outcomes: map[string]int{}}
			byStrategy[strategy] = a
			order = append(order, strategy)
		}
		depth, _ := strconv.Atoi(cells[2])
		decisions, _ := strconv.Atoi(cells[3])
		for _, x := range []*agg{a, &total} {
			x.runs++
			x.outcomes[outcome]++
			if cells[5] == "true" {
				x.news++
			}
			if depth > x.maxDepth {
				x.maxDepth = depth
			}
			if decisions > x.maxDecisions {
				x.maxDecisions = decisions
			}
		}
	}
	if total.runs == 0 {
		return fmt.Errorf("runs.csv has no runs")
	}

	distinct := 0
	if b, err := os.ReadFile(filepath.Join(dir, "seen.txt")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.TrimSpace(line) != "" {
				distinct++
			}
		}
	}
	frontier, frontierDepth := 0, 0
	if b, err := os.ReadFile(filepath.Join(dir, "frontier.txt")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			frontier++
			if d := len(strings.Fields(line)); line != "-" && d > frontierDepth {
				frontierDepth = d
			}
		}
	}
	repros, _ := filepath.Glob(filepath.Join(dir, "repro-*.sched"))
	sort.Strings(repros)
	failures := total.outcomes["assert-fail"] + total.outcomes["deadlock"] + total.outcomes["panic"]

	fmt.Fprintf(w, "%s: explore directory, %d runs, %d distinct fingerprints, %d failures, %d repros\n",
		dir, total.runs, distinct, failures, len(repros))
	if d == lineOnly {
		return nil
	}
	fmt.Fprintf(w, "%-10s %8s %8s %6s %6s  %s\n", "strategy", "runs", "new-fp", "depth", "decs", "outcomes")
	line := func(name string, a *agg) {
		kinds := make([]string, 0, len(a.outcomes))
		for k := range a.outcomes {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		parts := make([]string, len(kinds))
		for i, k := range kinds {
			parts[i] = fmt.Sprintf("%s=%d", k, a.outcomes[k])
		}
		fmt.Fprintf(w, "%-10s %8d %8d %6d %6d  %s\n", name, a.runs, a.news, a.maxDepth, a.maxDecisions, strings.Join(parts, " "))
	}
	for _, name := range order {
		line(name, byStrategy[name])
	}
	if len(order) > 1 {
		line("total", &total)
	}
	fmt.Fprintf(w, "\ndistinct fingerprints: %d (%.1f%% of runs)\n", distinct, 100*float64(distinct)/float64(total.runs))
	fmt.Fprintf(w, "frontier: %d unexplored prefixes (deepest %d decisions)\n", frontier, frontierDepth)
	fmt.Fprintf(w, "failures: %d, minimized repros: %d\n", failures, len(repros))
	for i, r := range repros {
		if i == 10 {
			fmt.Fprintf(w, "  ... %d more\n", len(repros)-i)
			break
		}
		fmt.Fprintf(w, "  %s\n", filepath.Base(r))
	}
	describeWorkers(w, dir)
	return nil
}

// describeWorkers renders workers.txt — the per-worker stats snapshot of the
// last pool invocation — as throughput and prune-rate columns. Absent for
// directories written before the parallel engine (or never explored by one),
// in which case it prints nothing.
func describeWorkers(w io.Writer, dir string) {
	b, err := os.ReadFile(filepath.Join(dir, "workers.txt"))
	if err != nil {
		return
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) < 2 {
		return
	}
	fmt.Fprintf(w, "\n%-8s %8s %8s %10s %10s %10s\n", "worker", "runs", "new-fp", "runs/sec", "branched", "prune-rate")
	for _, line := range lines[1:] {
		cells := strings.Split(strings.TrimSpace(line), ",")
		if len(cells) < 6 {
			continue
		}
		runs, _ := strconv.Atoi(cells[1])
		branched, _ := strconv.Atoi(cells[3])
		pruned, _ := strconv.Atoi(cells[4])
		ms, _ := strconv.Atoi(cells[5])
		rate := "-"
		if ms > 0 {
			rate = fmt.Sprintf("%.0f", float64(runs)/(float64(ms)/1e3))
		}
		pruneRate := "-"
		if branched+pruned > 0 {
			pruneRate = fmt.Sprintf("%.1f%%", 100*float64(pruned)/float64(branched+pruned))
		}
		fmt.Fprintf(w, "%-8s %8s %8s %10s %10d %10s\n", cells[0], cells[1], cells[2], rate, branched, pruneRate)
	}
}
