// Command qitrace records and inspects deterministic synchronization
// schedules. It can dump the schedule of any catalog program under any
// scheduling configuration, reproduce the Figure 1b serialized pbzip2
// schedule, and compare the schedules of two configurations.
//
// Usage:
//
//	qitrace -fig1b                             # Figure 1b: first 25 turns of pbzip2
//	qitrace -program ferret -mode qithread -n 50
//	qitrace -program pbzip2_compress -compare qithread,logical-clock
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"qithread"
	"qithread/internal/core"
	"qithread/internal/harness"
	"qithread/internal/programs"
	"qithread/internal/trace"
	"qithread/internal/workload"
)

// compareModes resolves the -compare argument, "mode1,mode2".
func compareModes(arg string) (m1, m2 harness.Mode, err error) {
	n1, n2, ok := strings.Cut(arg, ",")
	if !ok || n1 == "" || n2 == "" {
		return m1, m2, fmt.Errorf("-compare wants mode1,mode2")
	}
	m1, ok1 := harness.ModeByName(n1)
	m2, ok2 := harness.ModeByName(n2)
	if !ok1 || !ok2 {
		return m1, m2, fmt.Errorf("unknown mode in -compare %q", arg)
	}
	return m1, m2, nil
}

func record(spec programs.Spec, cfg qithread.Config, p workload.Params) ([]core.Event, int64, core.Snapshot) {
	cfg.Record = true
	rt := qithread.New(cfg)
	spec.Build(p)(rt)
	return rt.Trace(), rt.VirtualMakespan(), rt.Stats()
}

func main() {
	var (
		program = flag.String("program", "", "catalog program to trace")
		mode    = flag.String("mode", "qithread", "scheduling configuration")
		compare = flag.String("compare", "", "two modes to diff, comma separated")
		n       = flag.Int("n", 40, "events to print (0 = all)")
		scale   = flag.Float64("scale", 0.05, "workload scale")
		threads = flag.Int("threads", 0, "thread override")
		fig1b   = flag.Bool("fig1b", false, "reproduce Figure 1b (pbzip2, 2 consumers, vanilla round robin)")
		save    = flag.String("save", "", "write the recorded schedule to this file")
		replay  = flag.String("replay", "", "enforce a schedule previously written with -save")
		gantt   = flag.Bool("gantt", false, "render the schedule as a per-thread timeline")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "qitrace: unexpected arguments:", strings.Join(flag.Args(), " "))
		os.Exit(2)
	}

	if *fig1b {
		printFig1b()
		return
	}
	spec, ok := programs.Find(*program)
	if !ok {
		fmt.Fprintf(os.Stderr, "qitrace: unknown program %q (use qibench -list)\n", *program)
		os.Exit(1)
	}
	p := workload.Params{Scale: *scale, Threads: *threads, InputSeed: 7}

	if *compare != "" {
		m1, m2, err := compareModes(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qitrace:", err)
			os.Exit(1)
		}
		t1, _, _ := record(spec, m1.Cfg, p)
		t2, _, _ := record(spec, m2.Cfg, p)
		cp := trace.CommonPrefix(t1, t2)
		fmt.Printf("%s: %d events under %s, %d under %s, common prefix %d\n",
			spec.Name, len(t1), m1.Name, len(t2), m2.Name, cp)
		if cp < len(t1) && cp < len(t2) {
			fmt.Printf("divergence:\n  %s: %4d %v\n  %s: %4d %v\n", m1.Name, cp, t1[cp], m2.Name, cp, t2[cp])
		}
		return
	}

	m, okm := harness.ModeByName(*mode)
	if !okm {
		fmt.Fprintf(os.Stderr, "qitrace: unknown mode %q\n", *mode)
		os.Exit(1)
	}
	cfg := m.Cfg
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qitrace:", err)
			os.Exit(1)
		}
		sched, err := trace.Load(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "qitrace:", err)
			os.Exit(1)
		}
		cfg.Replay = sched
		fmt.Printf("enforcing recorded schedule of %d operations from %s\n", len(sched), *replay)
	}

	tr, makespan, stats := record(spec, cfg, p)
	fmt.Printf("%s under %s: %d synchronization operations, virtual makespan %d units, schedule hash %#x\n",
		spec.Name, *mode, len(tr), makespan, trace.Hash(tr))
	fmt.Printf("scheduler stats: %s\n", stats)
	if *save != "" {
		f, err := os.Create(*save)
		if err == nil {
			err = trace.Save(f, tr)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "qitrace:", err)
			os.Exit(1)
		}
		fmt.Printf("schedule saved to %s\n", *save)
	}
	if *gantt {
		trace.Gantt(os.Stdout, tr, *n)
		return
	}
	fmt.Print(trace.Format(tr, *n))
}

// printFig1b reproduces the schedule of Figure 1b: the simplified pbzip2
// program with one producer and two consumers under vanilla round robin,
// showing the serialized schedule of the first 25 turns.
func printFig1b() {
	rt := qithread.New(qithread.Config{Mode: qithread.RoundRobin, Record: true})
	var queue []int
	remaining := 6
	rt.Run(func(main *qithread.Thread) {
		m := rt.NewMutex(main, "m")
		cv := rt.NewCond(main, "cv")
		var kids []*qithread.Thread
		for i := 0; i < 2; i++ {
			kids = append(kids, main.Create(fmt.Sprintf("consumer%d", i+1), func(w *qithread.Thread) {
				for {
					m.Lock(w)
					for len(queue) == 0 && remaining > 0 {
						cv.Wait(w, m)
					}
					if len(queue) == 0 && remaining == 0 {
						m.Unlock(w)
						return
					}
					queue = queue[1:]
					remaining--
					if remaining == 0 {
						cv.Broadcast(w)
					}
					m.Unlock(w)
					w.Work(400) // compress()
				}
			}))
		}
		for b := 0; b < 6; b++ {
			main.Work(10) // read_block(i)
			m.Lock(main)
			queue = append(queue, b)
			m.Unlock(main)
			cv.Signal(main)
		}
		for _, k := range kids {
			main.Join(k)
		}
	})
	fmt.Println("Figure 1b: pbzip2 (1 producer, 2 consumers) under vanilla round robin.")
	fmt.Println("T0 = producer, T1/T2 = consumers. Note the serialized schedule.")
	fmt.Print(trace.Format(rt.Trace(), 25))
}
