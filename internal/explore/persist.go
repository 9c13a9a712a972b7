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

// Results-directory persistence for concurrent writers.
//
// Three mechanisms make one directory safe to share — across the workers of
// one invocation, across sequential resumed invocations, and across
// concurrent processes:
//
//   - runs.csv grows by APPENDS under an exclusive flock of dir/.lock, in
//     batches of up to flushEvery lines: concurrent appenders interleave at
//     batch granularity and never tear a line mid-byte (a crash can still
//     truncate the final line of a batch, which is why the loader below is
//     corruption-tolerant).
//   - seen.txt, frontier.txt and workers.txt are REPLACED via temp-file +
//     atomic rename, so a reader (qistat, a resuming session) never observes
//     a half-written snapshot. seen.txt and frontier.txt are merged with the
//     on-disk state under the lock before the rename: fingerprints another
//     process discovered are kept (appended after ours in its file order),
//     and frontier entries another process queued survive unless this
//     session executed them.
//   - the one reader, ReadResults, skips torn or malformed lines (counting
//     them; a resuming session reports the count as LoadWarnings) instead of
//     failing: a single torn frontier line must not make a directory
//     unresumable.
//
// Run ids stay process-local ordinals: two processes appending concurrently
// will reuse ids, which qistat tolerates (it aggregates by strategy). The
// supported sharing shapes are in-process workers (ids unique) and
// sequential cross-invocation resume (ids continue); concurrent processes
// get safe file semantics and merged coverage.

// withDirLock runs fn while holding an exclusive flock on dir/.lock,
// serializing results-file writers across processes. On platforms without
// flock it degrades to no inter-process exclusion (lockfile_other.go) —
// in-process exclusion is already provided by the session mutex.
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

// flushLocked writes the buffered runs.csv lines and, when new fingerprints
// arrived, the merged seen.txt snapshot. Caller holds mu. Persistence
// failures are fatal to the session — an exploration whose results silently
// vanish is worse than one that stops.
func (s *Session) flushLocked() {
	if s.Dir == "" || (len(s.pend) == 0 && !s.seenDirty) {
		return
	}
	pend := s.pend
	s.pend = nil
	s.pendRuns = 0
	seenDirty := s.seenDirty
	s.seenDirty = false
	err := s.withDirLock(func() error {
		if len(pend) > 0 {
			if err := appendRuns(filepath.Join(s.Dir, runsFile), pend); err != nil {
				return err
			}
		}
		if seenDirty {
			if err := s.writeSeenMerged(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		panic(fmt.Sprintf("explore: results dir %s: %v", s.Dir, err))
	}
}

// appendRuns appends one batch of run lines, writing the header first when
// the file does not exist yet.
func appendRuns(path string, batch []byte) error {
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if statErr != nil {
		if _, err := f.WriteString(runsHeader + "\n"); err != nil {
			return err
		}
	}
	_, err = f.Write(batch)
	return err
}

// writeSeenMerged snapshots the seen set (first-discovery order), keeping any
// fingerprints present on disk that this session does not know — another
// process's discoveries. Caller holds mu and the directory lock.
func (s *Session) writeSeenMerged() error {
	var b strings.Builder
	for _, fp := range s.seenOrdered() {
		b.WriteString(fp)
		b.WriteByte('\n')
	}
	onDisk, err := lines(s.Dir, seenFile)
	if err != nil {
		return err
	}
	for _, line := range onDisk {
		if _, known := s.seen[line]; !known {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return atomicWrite(filepath.Join(s.Dir, seenFile), []byte(b.String()))
}

// save persists everything: buffered runs, the seen snapshot, the frontier
// (merged with on-disk entries this session did not execute) and the
// per-worker stats of the invocation.
func (s *Session) save() error {
	if s.Dir == "" {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seenDirty = true // force a final snapshot even without new fingerprints
	s.flushLocked()
	return s.withDirLock(func() error {
		if err := s.writeFrontierMerged(); err != nil {
			return err
		}
		return s.writeWorkerStats()
	})
}

// writeFrontierMerged rewrites frontier.txt: this session's remaining
// frontier in order, then any valid on-disk entries that this session
// neither executed nor already holds (another process's additions). Caller
// holds mu and the directory lock.
func (s *Session) writeFrontierMerged() error {
	// Candidates for "another process's addition": what is on disk and was
	// not executed here. Entries the frontier still holds are struck out as
	// they are rendered, so only the disk side is ever held as strings.
	onDisk, err := lines(s.Dir, frontierFile)
	if err != nil {
		return err
	}
	var disk []string
	foreign := map[string]bool{}
	for _, line := range onDisk {
		if !s.executed[line] {
			disk = append(disk, line)
			foreign[line] = true
		}
	}
	var b []byte
	s.frontier.each(func(f flip) {
		start := len(b)
		b = f.appendLine(b)
		if foreign[string(b[start:])] {
			delete(foreign, string(b[start:]))
		}
		b = append(b, '\n')
	})
	for _, line := range disk {
		if !foreign[line] {
			continue
		}
		if _, err := parsePrefix(line); err != nil {
			continue // corrupt leftover; dropped on rewrite
		}
		b = append(b, line...)
		b = append(b, '\n')
	}
	return atomicWrite(filepath.Join(s.Dir, frontierFile), b)
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

// writeRepro saves one minimized repro schedule file.
func (s *Session) writeRepro(name string, final Result) (string, error) {
	path := filepath.Join(s.Dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("explore: repro file: %w", err)
	}
	defer f.Close()
	if err := trace.SaveExplored(f, final.Trace, final.Choices); err != nil {
		return "", fmt.Errorf("explore: repro file: %w", err)
	}
	return path, nil
}

// load resumes session state from what ReadResults finds in the results
// directory, under the directory lock so a concurrent writer's rename cannot
// race the reads. Torn or malformed lines — a crashed writer's last batch, a
// partial line from a concurrent append — were skipped and counted; they
// surface through LoadWarnings, because load runs inside NewSession, before a
// caller can attach a Verbose logger.
func (s *Session) load() error {
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return fmt.Errorf("explore: results dir: %w", err)
	}
	return s.withDirLock(func() error {
		res, err := ReadResults(s.Dir)
		if err != nil {
			return fmt.Errorf("explore: resuming: %w", err)
		}
		for id, fp := range res.Seen {
			s.seen[fp] = id // discovery order; exact run ids live in runs.csv
		}
		s.runs, s.maxDepth, s.failures = res.Total.Runs, res.Total.MaxDepth, res.Total.Failures()
		for _, prefix := range res.Frontier {
			s.frontier.push(prefixFlip(prefix))
		}
		for _, r := range res.Repros {
			s.repros = append(s.repros, r.Path)
			if r.Err == nil {
				s.reproSigs[r.Outcome+"|"+formatPrefix(r.Choices)] = true
			}
		}
		s.loadWarnings = res.Skipped
		return nil
	})
}

// Results is what a results directory holds: the one reading of its schema
// (declared with the Session, session.go), shared by a resuming Session and by
// qistat. A line a crashed or concurrent writer tore — too few cells, a field
// that does not parse — is skipped and counted, never fatal.
type Results struct {
	Strategies []StrategyStat  // runs.csv, aggregated per strategy in order of first appearance
	Total      StrategyStat    // and over all of them
	Seen       []string        // seen.txt: the distinct fingerprints, first-discovery order
	Frontier   [][]core.Choice // frontier.txt: the unexpanded forced prefixes, in pop order
	Workers    []WorkerStat    // workers.txt: the last invocation's workers, by worker index
	Repros     []Repro         // repro-*.sched, sorted by path
	Skipped    int             // torn or corrupt lines (and unreadable repro files) skipped
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
	if err != nil {
		return nil, err
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			out = append(out, line)
		}
	}
	return out, nil
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
		if len(cells) < 7 {
			res.Skipped++ // torn append from a crashed writer
			continue
		}
		i := slices.IndexFunc(res.Strategies, func(a StrategyStat) bool { return a.Strategy == cells[1] })
		if i < 0 {
			i = len(res.Strategies)
			res.Strategies = append(res.Strategies, StrategyStat{Strategy: cells[1], Outcomes: map[string]int{}})
		}
		depth, _ := strconv.Atoi(cells[2])
		decisions, _ := strconv.Atoi(cells[3])
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

	if rows, err = lines(dir, seenFile); err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(rows))
	for _, fp := range rows {
		if !seen[fp] {
			seen[fp] = true
			res.Seen = append(res.Seen, fp)
		}
	}

	if rows, err = lines(dir, frontierFile); err != nil {
		return nil, err
	}
	for _, row := range rows {
		prefix, err := parsePrefix(row)
		if err != nil {
			res.Skipped++ // corrupt entry; the rest of the frontier stands
			continue
		}
		res.Frontier = append(res.Frontier, prefix)
	}

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
