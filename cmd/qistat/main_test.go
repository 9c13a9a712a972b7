package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"qithread"
	"qithread/internal/ckpt"
	"qithread/internal/core"
	"qithread/internal/explore"
	"qithread/internal/harness"
	"qithread/internal/ingress"
	"qithread/internal/programs"
	"qithread/internal/trace"
	"qithread/internal/workload"
)

// TestStat drives the three verbs over one artifact of every kind the other
// tools write, each generated here: the summary line of each is pinned,
// verify refuses a damaged copy and a retired format, and convert is lossless
// there and back — including the decision log of an explored schedule,
// without which the file no longer replays — and refuses single-format kinds.
func TestStat(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, save func(io.Writer) error) string {
		t.Helper()
		var buf bytes.Buffer
		if err := save(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	size := func(path string) int {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return int(fi.Size())
	}
	line := func(path string, d detail) string {
		t.Helper()
		var out bytes.Buffer
		if err := describe(&out, path, d); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return strings.TrimPrefix(out.String(), path+": ")
	}

	// A deterministic schedule, in all three plain encodings.
	spec, _ := programs.Find("pbzip2_compress")
	cfg := harness.QiThread().Cfg
	cfg.Record = true
	rt := qithread.New(cfg)
	spec.Build(workload.Params{Scale: 0.05, InputSeed: 7})(rt)
	events := rt.Trace()
	v1 := write("v1.sched", func(b io.Writer) error { return trace.Save(b, events) })
	// Save writes v1 for a single-domain schedule; the same events under the
	// v2 header carry an explicit domain column.
	v2 := write("v2.sched", func(b io.Writer) error {
		_, body, _ := strings.Cut(string(mustRead(t, v1)), "\n")
		_, err := io.WriteString(b, "qithread-schedule v2\n"+strings.ReplaceAll(body, "\n", " 0\n"))
		return err
	})
	v3b := write("v3b.qbin", func(b io.Writer) error { return trace.SaveBinary(b, events) })
	for path, want := range map[string]string{
		v1:  "schedule, 261 events, 3236 bytes, hash=8a2839aefe2cd059\n",
		v2:  "schedule, 261 events, 3758 bytes, hash=8a2839aefe2cd059\n",
		v3b: "schedule, 261 events, 317 bytes, hash=8a2839aefe2cd059\n",
	} {
		if got := line(path, summary); got != want {
			t.Errorf("%s:\n got %q\nwant %q", filepath.Base(path), got, want)
		}
	}
	wantDetail := "schedule, 261 events, 3236 bytes, hash=8a2839aefe2cd059\n" +
		"  threads=17 ops=broadcast:1 cond_init:2 create:16 join:16 lock:49 mutex_init:1 signal:32 thread_begin:16 thread_end:17 unlock:49 wait:62\n"
	if got := line(v1, verbose); got != wantDetail {
		t.Errorf("-v:\n got %q\nwant %q", got, wantDetail)
	}

	// An ingress log and a checkpoint.
	log := &ingress.Log{Batches: []ingress.Batch{
		{Epoch: 1, Events: []ingress.Event{{Source: 0, Data: []byte("put k1 v1")}, {Source: 1, Data: []byte("get k1")}}},
		{Epoch: 2, Events: []ingress.Event{{Source: 2, Data: []byte{}}}},
		{Epoch: 4, Events: []ingress.Event{{Source: 1, Data: []byte{0, 0xff, '\n'}}}},
	}}
	binLog := write("v2b.qlog", log.SaveBinary)
	rec := &ckpt.Record{
		Epoch:    8,
		Domains:  []core.SchedState{{DomainID: 0, Live: 4, TraceLen: 106, TraceHash: 0x031898876356513a, Stats: core.Stats{Turns: 60}}},
		Xseqs:    []int64{0},
		Gateways: []ingress.GatewayState{{Epoch: 8, AdmitHash: 0x87358aaaa23c01fd, ShedHash: 0xcbf29ce484222325, Stats: ingress.Stats{Admitted: 8}}},
		App:      make([]byte, 40),
	}
	ckptPath := write("run.ckpt00008", func(b io.Writer) error { return ckpt.Save(b, rec) })
	for path, want := range map[string]string{
		binLog: fmt.Sprintf("ingress log, 4 events in 3 batches, %d bytes\n  epochs 1..4\n", size(binLog)),
		ckptPath: fmt.Sprintf("checkpoint at epoch 8, %d bytes\n", size(ckptPath)) +
			"  domain 0: turn=60 live=4 traced=106 hash=031898876356513a\n" +
			"  gateway: epoch=8 admitted=8 shed=0 admit=87358aaaa23c01fd shed=cbf29ce484222325\n" +
			"  channels=0 app=40 bytes\n",
	} {
		if got := line(path, verbose); got != want {
			t.Errorf("%s -v:\n got %q\nwant %q", filepath.Base(path), got, want)
		}
	}

	// A 50-run serial exploration of the seeded-bug program: a pure function
	// of (program, budget), with its first repro — an explored schedule — at
	// run 15.
	exDir := filepath.Join(dir, "ex")
	s, err := explore.NewSession(explore.Lookup("buggy"), exDir, explore.DefaultWatchdog)
	if err != nil {
		t.Fatal(err)
	}
	s.Workers = 1
	if err := s.ExploreDPOR(50, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := line(exDir, lineOnly), "explore directory, 50 runs, 50 distinct fingerprints, 8 failures, 8 repros\n"; got != want {
		t.Errorf("explore directory:\n got %q\nwant %q", got, want)
	}
	if body := line(exDir, summary); !strings.Contains(body, "\ndpor ") || !strings.Contains(body, "repro-assert-fail-015.sched") {
		t.Errorf("explore directory body:\n%s", body)
	}
	v3 := filepath.Join(exDir, "repro-assert-fail-015.sched")
	if got, want := line(v3, summary), "explored schedule, 32 events, 25 decisions, 682 bytes, hash=9f98be5a6976c067\n"; got != want {
		t.Errorf("v3:\n got %q\nwant %q", got, want)
	}

	// Every table qibench -o writes reads back and prints what the arm printed.
	r := &harness.Runner{Params: workload.Params{Scale: 0.02, InputSeed: 42}}
	for i := range harness.Experiments {
		e := &harness.Experiments[i]
		var printed bytes.Buffer
		tab, err := e.Run(&printed, r, harness.Args{Specs: programs.BySuite("phoenix"), SoakEvents: 500})
		if err != nil {
			t.Fatal(err)
		}
		if tab == nil {
			continue
		}
		path := write(e.Name+".csv", tab.WriteCSV)
		_, body, _ := strings.Cut(printed.String(), "\n")
		if got, want := line(path, summary), tab.String()+"\n"+body; got != want {
			t.Errorf("%s.csv:\n got %q\nwant %q", e.Name, got, want)
		}
		if got, want := line(path, lineOnly), tab.String()+"\n"; got != want || !strings.HasPrefix(got, e.Name+" table, ") {
			t.Errorf("verify %s.csv: %q, want %q", e.Name, got, want)
		}
	}
	bad := write("bad.csv", func(w io.Writer) error {
		_, err := io.WriteString(w, "program,suite,no-pcs-hint_ms,all-policies_ms\nfoo,bar,1.0,2.0\n")
		return err
	})
	if err := describe(&bytes.Buffer{}, bad, summary); err == nil || strings.Contains(err.Error(), "\n") {
		t.Errorf("a CSV no experiment declares: %v, want a one-line error", err)
	}

	// verify: one flipped byte in each binary kind; a text schedule cut
	// mid-line (the text format carries no checksum: a cut that leaves whole
	// lines is a valid, shorter file); the hex-text ingress log a build before
	// the single format wrote, refused by name with the re-record message.
	damaged := func(path string, damage func([]byte) []byte) {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p := write("damaged-"+filepath.Base(path), func(w io.Writer) error { _, err := w.Write(damage(b)); return err })
		if err := describe(&bytes.Buffer{}, p, lineOnly); err == nil {
			t.Errorf("verify accepted a damaged %s", filepath.Base(path))
		}
	}
	flip := func(b []byte) []byte { b[len(b)*2/3] ^= 0x10; return b }
	for _, path := range []string{v3b, binLog, ckptPath} {
		damaged(path, flip)
	}
	for _, path := range []string{v1, v3} {
		damaged(path, func(b []byte) []byte { return b[:len(b)-3] })
	}
	if err := describe(&bytes.Buffer{}, "../../internal/ingress/testdata/v1.log", lineOnly); err == nil ||
		!strings.HasPrefix(err.Error(), `ingress: "qithread-ingress v1" logs are no longer readable`) || !strings.HasSuffix(err.Error(), "re-record the run") {
		t.Errorf("verify on a v1 ingress log: %v, want the refusal by name", err)
	}

	// convert: there and back is the identity, on the file and on what it means.
	same := func(a, b string) {
		t.Helper()
		x, err1 := os.ReadFile(a)
		y, err2 := os.ReadFile(b)
		if err1 != nil || err2 != nil || !bytes.Equal(x, y) {
			t.Errorf("%s and %s differ (%v, %v)", filepath.Base(a), filepath.Base(b), err1, err2)
		}
	}
	conv := func(to, in, name string, events int) string {
		t.Helper()
		out := filepath.Join(dir, name)
		var msg bytes.Buffer
		if err := convert(&msg, to, out, in); err != nil {
			t.Fatalf("convert -to %s %s: %v", to, filepath.Base(in), err)
		}
		if want := fmt.Sprintf("%s: %d events, %d -> %d bytes\n", out, events, size(in), size(out)); msg.String() != want {
			t.Errorf("convert printed %q, want %q", msg.String(), want)
		}
		return out
	}
	same(conv("binary", v1, "c1.qbin", 261), v3b)
	same(conv("text", v3b, "c2.sched", 261), v1)
	back, err := trace.Load(bytes.NewReader(mustRead(t, conv("text", conv("binary", v2, "c3.qbin", 261), "c4.sched", 261))))
	if err != nil || trace.Hash(back) != trace.Hash(events) || !reflect.DeepEqual(back, events) {
		t.Errorf("v2 → binary → text: %d events, hash %016x, %v", len(back), trace.Hash(back), err)
	}
	// An explored schedule keeps its 25 decisions, or is refused.
	c7 := conv("text", v3, "c7.sched", 32)
	same(c7, v3)
	if _, choices, err := trace.LoadExplored(bytes.NewReader(mustRead(t, c7))); err != nil || len(choices) != 25 {
		t.Errorf("converted repro: %d decisions, %v", len(choices), err)
	}
	refused := filepath.Join(dir, "c8.qbin")
	if err := convert(&bytes.Buffer{}, "binary", refused, v3); err == nil || !strings.Contains(err.Error(), "25 decisions") {
		t.Errorf("explored schedule → binary: %v, want a refusal naming the decision log", err)
	}
	if _, err := os.Stat(refused); err == nil {
		t.Error("the refused conversion still wrote its output")
	}
	for _, path := range []string{binLog, ckptPath} {
		if err := convert(&bytes.Buffer{}, "text", filepath.Join(dir, "c9"), path); err == nil || !strings.Contains(err.Error(), "single format") {
			t.Errorf("convert %s: %v, want the single-format error", filepath.Base(path), err)
		}
	}
}

// TestExploreDirectoryOneReader: qistat and a resuming Session read a results
// directory through the same explore.ReadResults, so on a directory a crashed
// writer tore they count the same runs, failures and skipped lines. The damage
// is internal/explore's TestLoadToleratesCorruption plus a line cut after its
// sixth cell, which qistat's own parser used to count as a run (it asked for
// six cells, the session for seven) and skip in silence. Full-width rows whose
// id, depth, decision count, outcome or new flag is not what a session writes
// were counted as runs at depth 0 by both until PR 24; the assert-fail among
// them would show up in the failure counts compared below.
func TestExploreDirectoryOneReader(t *testing.T) {
	dir := t.TempDir()
	s1, err := explore.NewSession(explore.Lookup("buggy"), dir, explore.DefaultWatchdog)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.ExploreDPOR(30, 0); err != nil {
		t.Fatal(err)
	}
	for name, torn := range map[string]string{
		"runs.csv": "999,dpor,3\n998,dpor,3,25,assert-fail,true\n" +
			"x97,dpor,3,25,ok,false,fp,\n996,dpor,,25,assert-fail,false,fp,\n995,dpor,3,2x,ok,false,fp,\n" +
			"994,dpor,3,25,assert-fai,false,fp,\n993,dpor,3,25,ok,tru,fp,\n",
		"frontier.txt": "turn:not-a-number\nL 0:2:0:1\nF 1:0\n",
	} {
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(torn); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := explore.NewSession(explore.Lookup("buggy"), dir, explore.DefaultWatchdog)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Runs() != 30 || s2.Failures() != s1.Failures() || s2.LoadWarnings() != 9 || s2.FrontierLen() != s1.FrontierLen() {
		t.Errorf("resumed session: %d runs, %d failures, %d skipped lines, %d frontier entries; want 30, %d, 9, %d",
			s2.Runs(), s2.Failures(), s2.LoadWarnings(), s2.FrontierLen(), s1.Failures(), s1.FrontierLen())
	}
	var out bytes.Buffer
	if err := describe(&out, dir, lineOnly); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%s: explore directory, %d runs, %d distinct fingerprints, %d failures, %d repros, %d corrupt results line(s) skipped\n",
		dir, s2.Runs(), s2.Distinct(), s2.Failures(), len(s2.Repros()), s2.LoadWarnings())
	if out.String() != want {
		t.Errorf("qistat and the resumed session disagree:\n got %q\nwant %q", out.String(), want)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
