// Command qilog converts, inspects and verifies qithread's on-disk artifacts:
// schedule files (text "qithread-schedule v1/v2" or binary v3b), ingress logs
// (text "qithread-ingress v1" or binary v2b) and epoch checkpoints
// ("qithread-checkpoint v3b"; the v1b counter layout and the v2b policy-word
// layout are refused by name).
// Every loader auto-detects its format, so the tool only has to sniff which
// FAMILY a file belongs to.
//
// Usage:
//
//	qilog inspect file...              print each file's kind, counts and hash commitments
//	qilog verify file...               fully decode each file; exit nonzero on the first corrupt one
//	qilog convert -to binary|text -o out in
//	                                   re-encode a schedule or ingress log across formats
//
// convert is the migration path for existing recordings: text logs from old
// runs shrink to the compact binary framing (and back, for eyeballing) without
// touching their semantics — a converted schedule replays to the same
// fingerprint, a converted ingress log admits the same epochs.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"

	"qithread/internal/ckpt"
	"qithread/internal/ingress"
	"qithread/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "inspect":
		filesCmd(os.Args[2:], true)
	case "verify":
		filesCmd(os.Args[2:], false)
	case "convert":
		convertCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  qilog inspect file...
  qilog verify file...
  qilog convert -to binary|text -o out in`)
	os.Exit(2)
}

// sniff returns the artifact family of a serialized file from its header line.
func sniff(b []byte) string {
	head := b
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		head = b[:i]
	}
	switch {
	case bytes.HasPrefix(head, []byte("qithread-schedule ")):
		return "schedule"
	case bytes.HasPrefix(head, []byte("qithread-ingress ")):
		return "ingress"
	case bytes.HasPrefix(head, []byte("qithread-checkpoint ")):
		return "checkpoint"
	default:
		return ""
	}
}

func filesCmd(paths []string, verbose bool) {
	if len(paths) == 0 {
		usage()
	}
	for _, path := range paths {
		if err := describe(path, verbose); err != nil {
			fmt.Fprintf(os.Stderr, "qilog: %s: %v\n", path, err)
			os.Exit(1)
		}
	}
}

func describe(path string, verbose bool) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	switch sniff(b) {
	case "schedule":
		events, err := trace.Load(bytes.NewReader(b))
		if err != nil {
			return err
		}
		fmt.Printf("%s: schedule, %d events, %d bytes, hash=%016x\n", path, len(events), len(b), trace.Hash(events))
		if verbose && len(events) > 0 {
			threads := map[int]bool{}
			ops := map[string]int{}
			for _, e := range events {
				threads[e.TID] = true
				ops[e.Op.String()]++
			}
			fmt.Printf("  threads=%d ops=%s\n", len(threads), countMap(ops))
		}
	case "ingress":
		log, err := ingress.LoadLog(bytes.NewReader(b))
		if err != nil {
			return err
		}
		fmt.Printf("%s: ingress log, %d events in %d batches, %d bytes\n", path, log.Events(), len(log.Batches), len(b))
		if verbose && len(log.Batches) > 0 {
			fmt.Printf("  epochs %d..%d\n", log.Batches[0].Epoch, log.Batches[len(log.Batches)-1].Epoch)
		}
	case "checkpoint":
		rec, err := ckpt.Load(bytes.NewReader(b))
		if err != nil {
			return err
		}
		fmt.Printf("%s: checkpoint at epoch %d, %d bytes\n", path, rec.Epoch, len(b))
		if verbose {
			for _, d := range rec.Domains {
				fmt.Printf("  domain %d: turn=%d live=%d traced=%d hash=%016x\n",
					d.DomainID, d.Turns, d.Live, d.TraceLen, d.TraceHash)
			}
			for _, g := range rec.Gateways {
				fmt.Printf("  gateway: epoch=%d admitted=%d shed=%d admit=%016x shed=%016x\n",
					g.Epoch, g.Admitted, g.Shed, g.AdmitHash, g.ShedHash)
			}
			fmt.Printf("  channels=%d app=%d bytes\n", len(rec.Channels), len(rec.App))
		}
	default:
		return fmt.Errorf("not a qithread artifact (unrecognized header)")
	}
	return nil
}

// countMap renders op counts deterministically enough for a human: the few
// distinct ops sorted by name.
func countMap(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ { // tiny insertion sort; a handful of ops
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s:%d", k, m[k])
	}
	return sb.String()
}

func convertCmd(args []string) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	to := fs.String("to", "binary", "target encoding: binary or text")
	out := fs.String("o", "", "output path (required)")
	fs.Parse(args)
	if *out == "" || fs.NArg() != 1 || (*to != "binary" && *to != "text") {
		usage()
	}
	in := fs.Arg(0)
	b, err := os.ReadFile(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qilog:", err)
		os.Exit(1)
	}
	var buf bytes.Buffer
	switch sniff(b) {
	case "schedule":
		events, lerr := trace.Load(bytes.NewReader(b))
		if lerr != nil {
			err = lerr
			break
		}
		if *to == "binary" {
			err = trace.SaveBinary(&buf, events)
		} else {
			err = trace.Save(&buf, events)
		}
		if err == nil {
			fmt.Printf("%s: %d events, %d -> %d bytes\n", *out, len(events), len(b), buf.Len())
		}
	case "ingress":
		log, lerr := ingress.LoadLog(bytes.NewReader(b))
		if lerr != nil {
			err = lerr
			break
		}
		if *to == "binary" {
			err = log.SaveBinary(&buf)
		} else {
			err = log.Save(&buf)
		}
		if err == nil {
			fmt.Printf("%s: %d events, %d -> %d bytes\n", *out, log.Events(), len(b), buf.Len())
		}
	case "checkpoint":
		err = fmt.Errorf("checkpoints have a single format; nothing to convert")
	default:
		err = fmt.Errorf("not a qithread artifact (unrecognized header)")
	}
	if err == nil {
		err = os.WriteFile(*out, buf.Bytes(), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "qilog: %s: %v\n", in, err)
		os.Exit(1)
	}
}
