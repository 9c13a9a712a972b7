// Command qireplay records and replays externally-driven runs. In record
// mode it executes the ingress-driven request server live — free-running
// sources pacing themselves with random jitter, so arrival timing genuinely
// differs between invocations — and saves the ingress log plus a fingerprint
// sidecar (<log>.fp). In replay mode it re-feeds the recorded log any number
// of times and diffs every run's observables (output checksum, determinism
// fingerprint, admitted/shed hashes) against the sidecar and against each
// other, exiting nonzero on any divergence.
//
// Usage:
//
//	qireplay -record run.qlog [-checkpoint-every 64] [-jitter 500us] [-events 256] [-queue 64]
//	qireplay -replay run.qlog [-runs 20] [-from-checkpoint run.qlog.ckpt00064]
//	qireplay -schedule repro.sched -program buggy [-runs 20] [-expect failure|ok]
//
// -schedule replays an explored repro schedule (a v3 file emitted by
// qiexplore) against its registered program: the schedule's events drive turn
// order while its decision log drives the wake and admission choices replay
// cannot express. Every run must reproduce the same outcome, fingerprint and
// schedule hash; the command exits nonzero if the failure does not reproduce
// or any run diverges. -expect ok inverts the outcome requirement — the
// fix-proof mode: replay a failing schedule against the FIXED program
// (e.g. controlplane-fixed after exploring controlplane-race) and require
// the same interleaving to run clean.
//
// -record writes the ingress log in the binary v2b format, the one LoadLog
// reads. -checkpoint-every K snapshots the execution at every K-th admission
// epoch into <log>.ckptNNNNN files; -from-checkpoint starts each replay from
// such a snapshot instead of re-executing the whole prefix, and still must
// reproduce the FULL run's fingerprint sidecar.
//
// The workload knobs (-sources -events -workers -batch -queue -scale -mode)
// must match between the recording and the replay: the log captures the
// external input, not the program. -checkpoint-every must match too — the
// quiescence drive at each checkpoint is part of the schedule.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"strings"
	"time"

	"qithread"
	"qithread/internal/explore"
	"qithread/internal/harness"
	"qithread/internal/trace"
	"qithread/internal/workload"
)

func main() {
	var (
		record  = flag.String("record", "", "run live and write the ingress log to this path")
		replay  = flag.String("replay", "", "re-feed a recorded ingress log")
		runs    = flag.Int("runs", 20, "replay count (with -replay)")
		mode    = flag.String("mode", "qithread", "scheduling configuration (qithread | no-hint | logical-clock)")
		sources = flag.Int("sources", 4, "free-running event sources")
		events  = flag.Int("events", 256, "total events across sources")
		workers = flag.Int("workers", 3, "worker pool size")
		batch   = flag.Int("batch", 16, "admission batch bound")
		queue   = flag.Int("queue", 0, "admission queue bound (0 = default; small values shed)")
		jitter  = flag.Duration("jitter", 500*time.Microsecond, "max random inter-event pacing per source (record mode)")
		scale   = flag.Float64("scale", 0.25, "workload scale factor")
		verbose = flag.Bool("v", false, "print per-run observables")
		ckEvery = flag.Int64("checkpoint-every", 0, "checkpoint every K admission epochs (must match between record and replay)")
		fromCk  = flag.String("from-checkpoint", "", "resume each replay from this checkpoint file (with -replay)")
		sched   = flag.String("schedule", "", "replay an explored repro schedule (with -program)")
		program = flag.String("program", "", "registered explore program the schedule belongs to (with -schedule)")
		expect  = flag.String("expect", "failure", "outcome class replay 0 must produce in -schedule mode: failure | ok")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "qireplay: unexpected arguments:", strings.Join(flag.Args(), " "))
		os.Exit(2)
	}

	if *sched != "" {
		os.Exit(replaySchedule(os.Stdout, os.Stderr, *sched, *program, *runs, *expect, *verbose))
	}
	if (*record == "") == (*replay == "") {
		fmt.Fprintln(os.Stderr, "qireplay: exactly one of -record, -replay or -schedule is required")
		os.Exit(2)
	}

	m, ok := harness.ModeByName(*mode)
	if !ok {
		fmt.Fprintf(os.Stderr, "qireplay: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	cfg := m.Cfg
	wcfg := workload.IngressServerConfig{
		Sources: *sources, Events: *events, Workers: *workers,
		MaxBatch: *batch, QueueCap: *queue,
		ParseWork: 320, StateWork: 80,
		CheckpointEvery: *ckEvery,
	}
	p := workload.Params{Scale: *scale, InputSeed: 42}

	if *record != "" {
		wcfg.Jitter = *jitter
		run := workload.RunIngressServer(wcfg, p, cfg, nil)
		if err := saveLog(*record, *mode, run); err != nil {
			fmt.Fprintln(os.Stderr, "qireplay:", err)
			os.Exit(1)
		}
		for _, cp := range run.Checkpoints {
			path := fmt.Sprintf("%s.ckpt%05d", *record, cp.Epoch())
			if err := saveCheckpoint(path, cp); err != nil {
				fmt.Fprintln(os.Stderr, "qireplay:", err)
				os.Exit(1)
			}
			if *verbose {
				fmt.Printf("checkpoint at epoch %d -> %s\n", cp.Epoch(), path)
			}
		}
		fmt.Printf("recorded %d events in %d batches over %d epochs -> %s\n",
			run.Log.Events(), len(run.Log.Batches), run.Stats.Epochs, *record)
		if n := len(run.Checkpoints); n > 0 {
			fmt.Printf("checkpoints: %d (every %d epochs) -> %s.ckpt*\n", n, *ckEvery, *record)
		}
		fmt.Printf("stats:       %s\n", run.Stats)
		fmt.Printf("output:      %d\n", run.Output)
		fmt.Printf("fingerprint: %s\n", run.Fingerprint)
		fmt.Printf("admit/shed:  %016x / %016x\n", run.AdmitHash, run.ShedHash)
		return
	}

	f, err := os.Open(*replay)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qireplay:", err)
		os.Exit(1)
	}
	log, err := qithread.LoadIngressLog(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "qireplay:", err)
		os.Exit(1)
	}
	var ckpt *qithread.Checkpoint
	if *fromCk != "" {
		cf, err := os.Open(*fromCk)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qireplay:", err)
			os.Exit(1)
		}
		ckpt, err = qithread.LoadCheckpoint(cf)
		cf.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "qireplay:", err)
			os.Exit(1)
		}
		if *verbose {
			fmt.Printf("resuming from checkpoint at epoch %d\n", ckpt.Epoch())
		}
	}

	want, recMode, err := loadSidecar(*replay + ".fp")
	if err != nil {
		fmt.Fprintln(os.Stderr, "qireplay:", err)
		os.Exit(1)
	}
	haveSidecar := want != ""
	if haveSidecar && recMode != *mode {
		// A different scheduler produces a different (equally deterministic)
		// schedule from the same ingress log, so the recorded fingerprint
		// does not apply — only replay-vs-replay agreement is checkable.
		fmt.Fprintf(os.Stderr, "qireplay: recording was made under -mode %s, replaying under -mode %s; schedule fingerprints legitimately differ, comparing replays only with each other\n", recMode, *mode)
		haveSidecar = false
	}

	var ref string
	fail := false
	for i := 0; i < *runs; i++ {
		var run workload.IngressRun
		if ckpt != nil {
			run = workload.ResumeIngressServer(wcfg, p, cfg, log, ckpt)
		} else {
			run = workload.RunIngressServer(wcfg, p, cfg, log)
		}
		got := observables(run)
		if *verbose {
			fmt.Printf("replay %2d: %s\n", i, got)
		}
		if i == 0 {
			ref = got
			if haveSidecar && got != want {
				fmt.Fprintf(os.Stderr, "qireplay: replay diverged from recording:\n  recorded: %s\n  replayed: %s\n", want, got)
				fail = true
			}
		} else if got != ref {
			fmt.Fprintf(os.Stderr, "qireplay: replay %d diverged from replay 0:\n  replay 0: %s\n  replay %d: %s\n", i, ref, i, got)
			fail = true
		}
	}
	if fail {
		os.Exit(1)
	}
	src := "each other"
	if haveSidecar {
		src = "the recording"
	}
	fmt.Printf("%d replays of %d events identical to %s\n  %s\n", *runs, log.Events(), src, ref)
}

// replaySchedule re-executes an explored repro schedule -runs times and
// verifies every run reproduces the recorded schedule (hash-identical trace)
// with one agreed outcome and fingerprint. expect selects the outcome class
// replay 0 must land in: "failure" (the default — the repro must reproduce
// its bug) or "ok" — the fix-proof mode, replaying a failing schedule
// against the FIXED program to show the same interleaving now runs clean.
// It returns the process exit code.
func replaySchedule(stdout, stderr io.Writer, path, program string, runs int, expect string, verbose bool) int {
	if program == "" {
		fmt.Fprintf(stderr, "qireplay: -schedule requires -program (known: %s)\n", strings.Join(explore.Names(), ", "))
		return 2
	}
	if expect != "failure" && expect != "ok" {
		fmt.Fprintf(stderr, "qireplay: -expect must be failure or ok, got %q\n", expect)
		return 2
	}
	p := explore.Lookup(program)
	if p == nil {
		fmt.Fprintf(stderr, "qireplay: unknown program %q (known: %s)\n", program, strings.Join(explore.Names(), ", "))
		return 2
	}
	events, choices, err := explore.LoadRepro(path)
	if err != nil {
		fmt.Fprintln(stderr, "qireplay:", err)
		return 1
	}
	want := trace.Hash(events)
	fail := false
	var ref explore.Result
	for i := 0; i < runs; i++ {
		res := explore.ReplayRepro(p, events, choices, explore.DefaultWatchdog)
		if verbose {
			fmt.Fprintf(stdout, "replay %2d: outcome=%s fingerprint=[%s] schedule=%016x\n", i, res.Outcome, res.Fingerprint, res.Hash())
		}
		got := res.Hash()
		if got != want {
			fmt.Fprintf(stderr, "qireplay: replay %d schedule hash %016x, recorded %016x\n", i, got, want)
			fail = true
		}
		// A replay divergence is a panic whose text says where the run left
		// the schedule; without it a mismatch is two bare hashes.
		if (got != want || res.Outcome == explore.OutcomePanic) && res.Err != "" {
			fmt.Fprintf(stderr, "qireplay: replay %d %s: %s\n", i, res.Outcome, res.Err)
		}
		if i == 0 {
			ref = res
			switch {
			case expect == "failure" && !res.Outcome.Failure():
				fmt.Fprintf(stderr, "qireplay: replay 0 outcome %s; the repro does not reproduce a failure\n", res.Outcome)
				fail = true
			case expect == "ok" && res.Outcome != explore.OutcomeOK:
				fmt.Fprintf(stderr, "qireplay: replay 0 outcome %s (%q); the schedule still fails against this program\n", res.Outcome, res.Err)
				fail = true
			}
		} else if res.Outcome != ref.Outcome || res.Fingerprint != ref.Fingerprint {
			fmt.Fprintf(stderr, "qireplay: replay %d diverged:\n  replay 0: outcome=%s fingerprint=[%s]\n  replay %d: outcome=%s fingerprint=[%s]\n",
				i, ref.Outcome, ref.Fingerprint, i, res.Outcome, res.Fingerprint)
			fail = true
		}
	}
	if fail {
		return 1
	}
	fmt.Fprintf(stdout, "%d replays of %s reproduced %s (%q)\n  fingerprint=[%s] schedule=%016x events=%d decisions=%d\n",
		runs, path, ref.Outcome, ref.Err, ref.Fingerprint, want, len(events), len(choices))
	return 0
}

// observables condenses a run's determinism-relevant results into one
// comparable line (also the sidecar format).
func observables(run workload.IngressRun) string {
	return fmt.Sprintf("output=%d fingerprint=[%s] admit=%016x shed=%016x",
		run.Output, run.Fingerprint, run.AdmitHash, run.ShedHash)
}

func saveLog(path, mode string, run workload.IngressRun) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = run.Log.SaveBinary(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	sidecar := fmt.Sprintf("mode=%s\n%s\n", mode, observables(run))
	return os.WriteFile(path+".fp", []byte(sidecar), 0o644)
}

func saveCheckpoint(path string, cp *qithread.Checkpoint) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = qithread.SaveCheckpoint(f, cp)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// loadSidecar returns the recorded observables line and the scheduling mode
// the recording ran under, from the sidecar saveLog wrote; obs is empty when
// there is no sidecar. A sidecar that cannot be read, or does not open with
// its mode= line, is refused.
func loadSidecar(path string) (obs, mode string, err error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		fmt.Fprintf(os.Stderr, "qireplay: no fingerprint sidecar %s; comparing replays only with each other\n", path)
		return "", "", nil
	}
	if err != nil {
		return "", "", err
	}
	rest, found := strings.CutPrefix(strings.TrimRight(string(b), "\r\n"), "mode=")
	mode, obs, split := strings.Cut(rest, "\n")
	if !found || !split || obs == "" {
		return "", "", fmt.Errorf("%s: not a fingerprint sidecar this build reads (want a mode= line, then the observables line); re-record the run", path)
	}
	return obs, mode, nil
}
