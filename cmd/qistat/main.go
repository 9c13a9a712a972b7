// Command qistat reads everything the other tools write: schedule files (text
// "qithread-schedule v1/v2/v3" or binary v3b), ingress logs (binary
// "qithread-ingress v2b"; the hex-text v1 format is refused by name), epoch
// checkpoints ("qithread-checkpoint v4b"; the v1b counter layout, the v2b
// policy-word layout and the v3b per-domain lists are refused by name), the
// table any `qibench -experiment X -o` wrote, and qiexplore results
// directories. Every loader checks its own header, so the tool only has to
// sniff which FAMILY a path belongs to.
//
// Usage:
//
//	qistat [-v] path...                one summary line per path — kind, counts and hash
//	                                   commitments; a table or an explore directory is
//	                                   then printed in full, -v adds per-thread, per-epoch
//	                                   and per-domain detail for the recorded artifacts
//	qistat verify path...              fully decode each; the summary line only, exit
//	                                   nonzero on the first corrupt one
//	qistat convert -to binary|text -o out in
//	                                   re-encode a schedule across formats
//
// A table prints exactly as qibench printed it, aggregate lines included:
// both go through harness.Table. convert moves a schedule between the text and
// the compact binary framing (and back, for eyeballing) without touching its
// semantics: a converted schedule replays to the same fingerprint. Ingress
// logs and checkpoints have a single format, so convert refuses them.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"qithread/internal/ckpt"
	"qithread/internal/core"
	"qithread/internal/explore"
	"qithread/internal/harness"
	"qithread/internal/ingress"
	"qithread/internal/trace"
)

func main() {
	args := os.Args[1:]
	detail := summary
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
	}
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		usage()
	}
	for _, path := range args {
		if err := describe(os.Stdout, path, detail); err != nil {
			fatal(path, err)
		}
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  qistat [-v] path...        schedule, ingress log, checkpoint, qibench -o table or qiexplore directory
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
	case string(bytes.TrimSpace(head)) == trace.HeaderExplored: // trimmed as the loaders trim it
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
func describe(w io.Writer, path string, d detail) error {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
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
			threads := map[int32]bool{}
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
		fmt.Fprintf(w, "%s: checkpoint at epoch %d, %d bytes\n", path, rec.Epoch(), len(b))
		if d == verbose {
			dom := &rec.Domain
			fmt.Fprintf(w, "  domain %d: turn=%d live=%d traced=%d hash=%016x\n",
				dom.DomainID, dom.Turns, len(dom.Threads), dom.TraceLen, dom.TraceHash)
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

// convert re-encodes a schedule. An explored schedule keeps its decision log
// (text to text) or is refused: the binary format has no decision section,
// and a repro without its decisions no longer replays.
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
	case ingressLog, checkpoint:
		return fmt.Errorf("%ss have a single format; nothing to convert", kind)
	default:
		return fmt.Errorf("not a schedule (unrecognized header)")
	}
	if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %d events, %d -> %d bytes\n", out, n, len(b), buf.Len())
	return nil
}

// describeExplore reports a qiexplore results directory as explore.ReadResults
// read it: runs and failure breakdown per strategy, distinct-fingerprint
// coverage, the unexplored frontier's size and depth profile, the emitted
// repro schedules and — when a parallel engine last wrote the directory — each
// worker's throughput and prune rate.
func describeExplore(w io.Writer, dir string, d detail) error {
	res, err := explore.ReadResults(dir)
	if err != nil {
		return err
	}
	total := res.Total
	if total.Runs == 0 {
		return fmt.Errorf("not a qiexplore results directory (it records no runs)")
	}
	skipped := ""
	if res.Skipped > 0 {
		skipped = fmt.Sprintf(", %d corrupt results line(s) skipped", res.Skipped)
	}
	fmt.Fprintf(w, "%s: explore directory, %d runs, %d distinct fingerprints, %d failures, %d repros%s\n",
		dir, total.Runs, len(res.Seen), total.Failures(), len(res.Repros), skipped)
	if d == lineOnly {
		return nil
	}
	fmt.Fprintf(w, "%-10s %8s %8s %6s %6s  %s\n", "strategy", "runs", "new-fp", "depth", "decs", "outcomes")
	line := func(a explore.StrategyStat) {
		kinds := make([]string, 0, len(a.Outcomes))
		for k := range a.Outcomes {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for i, k := range kinds {
			kinds[i] = fmt.Sprintf("%s=%d", k, a.Outcomes[k])
		}
		fmt.Fprintf(w, "%-10s %8d %8d %6d %6d  %s\n", a.Strategy, a.Runs, a.New, a.MaxDepth, a.MaxDecisions, strings.Join(kinds, " "))
	}
	for _, a := range res.Strategies {
		line(a)
	}
	if len(res.Strategies) > 1 {
		line(total)
	}
	fmt.Fprintf(w, "\ndistinct fingerprints: %d (%.1f%% of runs)\n", len(res.Seen), 100*float64(len(res.Seen))/float64(total.Runs))
	fmt.Fprintf(w, "frontier: %d unexplored prefixes (deepest %d decisions)\n", res.Frontier, res.FrontierDepth)
	fmt.Fprintf(w, "failures: %d, minimized repros: %d\n", total.Failures(), len(res.Repros))
	for i, r := range res.Repros {
		if i == 10 {
			fmt.Fprintf(w, "  ... %d more\n", len(res.Repros)-i)
			break
		}
		fmt.Fprintf(w, "  %s\n", filepath.Base(r.Path))
	}
	if len(res.Workers) > 0 {
		fmt.Fprintf(w, "\n%-8s %8s %8s %10s %10s %10s\n", "worker", "runs", "new-fp", "runs/sec", "branched", "prune-rate")
	}
	for i, st := range res.Workers {
		rate, pruneRate := "-", "-"
		if ms := st.Elapsed.Milliseconds(); ms > 0 {
			rate = fmt.Sprintf("%.0f", float64(st.Runs)/(float64(ms)/1e3))
		}
		if st.Branched+st.Pruned > 0 {
			pruneRate = fmt.Sprintf("%.1f%%", 100*float64(st.Pruned)/float64(st.Branched+st.Pruned))
		}
		fmt.Fprintf(w, "%-8d %8d %8d %10s %10d %10s\n", i, st.Runs, st.New, rate, st.Branched, pruneRate)
	}
	return nil
}
