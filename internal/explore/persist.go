package explore

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"qithread/internal/core"
	"qithread/internal/trace"
)

// Results-directory persistence. A results directory is the state of ONE
// writing session, stored as the session holds it:
//
//   - the session takes an exclusive flock of dir/.lock once per
//     ExploreDPOR/ExplorePCT call — search, flushes and final save — and for
//     NewSession's load. Before it searches it compares runs.csv with what it
//     loaded and has appended since: a directory somebody else wrote to in
//     between is refused by name, not merged (exclusively), and whoever wants
//     to continue from it opens a new session.
//   - runs.csv grows by APPENDS in batches of up to flushEvery lines, so a
//     crash loses at most a batch (it can still truncate the batch's last
//     line, which is why the loader below is corruption-tolerant). The seen
//     set is its new=true rows; nothing else stores it.
//   - frontier.txt and workers.txt are REPLACED at the end of the call via
//     temp-file + atomic rename, so a reader (qistat) never observes a
//     half-written snapshot. Nothing is read back while the lock is held.
//   - the one reader, ReadResults, skips torn or malformed lines (counting
//     them; a resuming session reports the count as LoadWarnings) instead of
//     failing: a single torn frontier line must not make a directory
//     unresumable.

// withDirLock runs fn while holding an exclusive flock on dir/.lock. On
// platforms without flock it degrades to no inter-process exclusion
// (lockfile_other.go); the changed-directory check of exclusively still
// holds there.
func (s *Session) withDirLock(fn func() error) error {
	f, err := os.OpenFile(filepath.Join(s.Dir, ".lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("explore: lock file: %w", err)
	}
	defer f.Close()
	if err := flockExclusive(f); err != nil {
		return fmt.Errorf("explore: flock: %w", err)
	}
	defer flockRelease(f)
	return fn()
}

// exclusively runs one ExploreDPOR/ExplorePCT call: search, then save, as the
// directory's only writer. runs.csv is append-only, so its size is the
// directory's version: if it is not what this session loaded plus what it
// appended, another session has recorded runs — and popped frontier entries —
// this one knows nothing of, and searching on would run them again under run
// ids already taken.
func (s *Session) exclusively(search func() error) error {
	if s.Dir == "" {
		return search()
	}
	return s.withDirLock(func() error {
		if size := fileSize(filepath.Join(s.Dir, runsFile)); size != s.runsSize {
			return fmt.Errorf("explore: results dir %s: %s is %d bytes, this session knows %d: another session wrote here since this one loaded it; open a new session to resume",
				s.Dir, runsFile, size, s.runsSize)
		}
		if err := search(); err != nil {
			return err
		}
		return s.save()
	})
}

// fileSize is the length of the file at path, 0 when there is none.
func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// atomicWrite replaces path with data via a temp file in the same directory
// and an atomic rename.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// flushLocked appends the buffered runs.csv lines, the column row first when
// the file is new. Caller holds mu and, through exclusively, the directory
// lock. Persistence failures are fatal to the session — an exploration whose
// results silently vanish is worse than one that stops.
func (s *Session) flushLocked() {
	if len(s.pend) == 0 {
		return
	}
	batch := s.pend
	if s.runsSize == 0 {
		batch = append([]byte(runsHeader+"\n"), batch...)
	}
	s.pend, s.pendRuns = s.pend[:0], 0
	f, err := os.OpenFile(filepath.Join(s.Dir, runsFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err == nil {
		var n int
		n, err = f.Write(batch)
		s.runsSize += int64(n)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		panic(fmt.Sprintf("explore: results dir %s: %v", s.Dir, err))
	}
}

// save persists what the search left: buffered runs, the frontier in the
// structure-shared form the session holds it in (frontier.go), and the
// per-worker stats of the invocation.
func (s *Session) save() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	if err := atomicWrite(filepath.Join(s.Dir, frontierFile), s.frontier.appendFile(nil)); err != nil {
		return err
	}
	return s.writeWorkerStats()
}

// writeWorkerStats snapshots the last invocation's per-worker stats for
// qistat's throughput/prune columns. Absent until a pool has run.
func (s *Session) writeWorkerStats() error {
	if len(s.workerStats) == 0 {
		return nil
	}
	var b strings.Builder
	b.WriteString(workersHeader + "\n")
	for i, st := range s.workerStats {
		fmt.Fprintf(&b, workersRow+"\n", i, st.Runs, st.New, st.Branched, st.Pruned, st.Elapsed.Milliseconds())
	}
	return atomicWrite(filepath.Join(s.Dir, workersFile), []byte(b.String()))
}

// writeRepro saves one minimized repro schedule file. A file that did not
// close cleanly is not written.
func (s *Session) writeRepro(name string, final Result) (string, error) {
	path := filepath.Join(s.Dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("explore: repro file: %w", err)
	}
	err = trace.SaveExplored(f, final.Trace, choicesOf(final.log))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("explore: repro file: %w", err)
	}
	return path, nil
}

// load resumes session state from what ReadResults finds in the results
// directory, under the directory lock so that what it reads and the runs.csv
// size it remembers are one state. Torn or malformed lines — a crashed
// writer's last batch — were skipped and counted; they surface through
// LoadWarnings, because load runs inside NewSession, before a caller can
// attach a Verbose logger.
func (s *Session) load() error {
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return fmt.Errorf("explore: results dir: %w", err)
	}
	return s.withDirLock(func() error {
		res, err := ReadResults(s.Dir)
		if err != nil {
			return fmt.Errorf("explore: resuming: %w", err)
		}
		s.runsSize = fileSize(filepath.Join(s.Dir, runsFile))
		for id, fp := range res.Seen {
			s.seen[fp] = id // discovery order; exact run ids live in runs.csv
		}
		s.runs, s.maxDepth, s.failures = res.Total.Runs, res.Total.MaxDepth, res.Total.Failures()
		s.frontier = res.frontier
		for _, r := range res.Repros {
			s.repros = append(s.repros, r.Path)
			if r.Err == nil {
				s.reproSigs[r.Outcome+"|"+formatPrefix(decisionsOf(r.Choices))] = true
			}
		}
		s.loadWarnings = res.Skipped
		return nil
	})
}

// Results is what a results directory holds: the one reading of its schema
// (declared with the Session, session.go), shared by a resuming Session and by
// qistat. A line a crashed writer tore — too few cells, a field that does not
// parse — is skipped and counted, never fatal.
type Results struct {
	Strategies    []StrategyStat // runs.csv, aggregated per strategy in order of first appearance
	Total         StrategyStat   // and over all of them
	Seen          []string       // the fingerprints of its new=true rows: the distinct ones, first-discovery order
	Frontier      int            // frontier.txt: how many unexpanded forced prefixes it queues
	FrontierDepth int            // and the length of the deepest
	Workers       []WorkerStat   // workers.txt: the last invocation's workers, by worker index
	Repros        []Repro        // repro-*.sched, sorted by path
	Skipped       int            // torn or corrupt lines (and unreadable repro files) skipped

	frontier flipQueue // the queue itself, in pop order, for Session.load
}

// StrategyStat aggregates the runs.csv rows of one search strategy.
type StrategyStat struct {
	Strategy                          string
	Runs, New, MaxDepth, MaxDecisions int
	Outcomes                          map[string]int // runs per Outcome.String()
}

// Repro is one minimized repro schedule of the directory. The outcome is the
// one its file name records (repro-<outcome>-<run id>.sched), Choices the
// decision log the file holds, Err why it did not load.
type Repro struct {
	Path, Outcome string
	Choices       []core.Choice
	Err           error
}

// Failures counts the runs whose outcome is a bug-class result.
func (a StrategyStat) Failures() int {
	n := 0
	for o := OutcomeOK; o <= OutcomeHang; o++ {
		if o.Failure() {
			n += a.Outcomes[o.String()]
		}
	}
	return n
}

// lines returns the non-empty lines of dir/name, trimmed; a file that does not
// exist has none.
func lines(dir, name string) ([]string, error) {
	data, err := os.ReadFile(filepath.Join(dir, name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	return splitLines(string(data)), err
}

func splitLines(data string) []string {
	var out []string
	for _, line := range strings.Split(data, "\n") {
		if line = strings.TrimSpace(line); line != "" {
			out = append(out, line)
		}
	}
	return out
}

// runRow reads the depth and decision count off the cells of a runs.csv row.
// It is ok only when the row is one recordLocked writes: an id, a depth and a
// decision count that parse, an outcome some Outcome prints as, and a new flag
// that is one of the two booleans.
func runRow(cells []string) (depth, decisions int, ok bool) {
	if len(cells) < 7 || (cells[5] != "true" && cells[5] != "false") {
		return 0, 0, false
	}
	_, errID := strconv.Atoi(cells[0])
	depth, errDepth := strconv.Atoi(cells[2])
	decisions, errDecisions := strconv.Atoi(cells[3])
	known := false
	for o := OutcomeOK; o <= OutcomeHang; o++ {
		known = known || o.String() == cells[4]
	}
	return depth, decisions, errID == nil && errDepth == nil && errDecisions == nil && known
}

// ReadResults reads a results directory without locking or modifying it. A
// directory that holds none of the files reads as an empty Results.
func ReadResults(dir string) (*Results, error) {
	res := &Results{Total: StrategyStat{Strategy: "total", Outcomes: map[string]int{}}}
	rows, err := lines(dir, runsFile)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		if strings.HasPrefix(row, "run,") {
			continue // runsHeader
		}
		cells := strings.Split(row, ",")
		depth, decisions, ok := runRow(cells)
		if !ok {
			res.Skipped++ // torn append from a crashed writer
			continue
		}
		i := slices.IndexFunc(res.Strategies, func(a StrategyStat) bool { return a.Strategy == cells[1] })
		if i < 0 {
			i = len(res.Strategies)
			res.Strategies = append(res.Strategies, StrategyStat{Strategy: cells[1], Outcomes: map[string]int{}})
		}
		if cells[5] == "true" {
			res.Seen = append(res.Seen, cells[6])
		}
		for _, a := range []*StrategyStat{&res.Strategies[i], &res.Total} {
			a.Runs++
			a.Outcomes[cells[4]]++
			if cells[5] == "true" {
				a.New++
			}
			a.MaxDepth = max(a.MaxDepth, depth)
			a.MaxDecisions = max(a.MaxDecisions, decisions)
		}
	}

	if rows, err = lines(dir, frontierFile); err != nil {
		return nil, err
	}
	var skipped int
	res.frontier, res.FrontierDepth, skipped = readFrontier(rows)
	res.Frontier = res.frontier.len()
	res.Skipped += skipped

	if rows, err = lines(dir, workersFile); err != nil {
		return nil, err
	}
	for _, row := range rows {
		if strings.HasPrefix(row, "worker,") {
			continue // workersHeader
		}
		var index, ms int
		var st WorkerStat
		if n, _ := fmt.Sscanf(row, workersRow, &index, &st.Runs, &st.New, &st.Branched, &st.Pruned, &ms); n != 6 {
			res.Skipped++
			continue
		}
		st.Elapsed = time.Duration(ms) * time.Millisecond
		res.Workers = append(res.Workers, st)
	}

	entries, err := os.ReadDir(dir) // sorted by name
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	for _, e := range entries {
		outcome, ok := strings.CutPrefix(e.Name(), "repro-")
		if !ok || !strings.HasSuffix(outcome, ".sched") {
			continue
		}
		if i := strings.LastIndexByte(outcome, '-'); i >= 0 {
			outcome = outcome[:i]
		}
		r := Repro{Path: filepath.Join(dir, e.Name()), Outcome: outcome}
		if _, r.Choices, r.Err = LoadRepro(r.Path); r.Err != nil {
			res.Skipped++
		}
		res.Repros = append(res.Repros, r)
	}
	return res, nil
}
