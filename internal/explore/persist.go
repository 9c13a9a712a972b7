package explore

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

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
//   - the loader skips torn or malformed lines (counting them in
//     LoadWarnings) instead of aborting the resume; previously a single torn
//     frontier line made a directory unresumable.
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
	if data, err := os.ReadFile(filepath.Join(s.Dir, seenFile)); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if _, known := s.seen[line]; line != "" && !known {
				b.WriteString(line)
				b.WriteByte('\n')
			}
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
	var disk []string
	foreign := map[string]bool{}
	if data, err := os.ReadFile(filepath.Join(s.Dir, frontierFile)); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if line = strings.TrimSpace(line); line != "" && !s.executed[line] {
				disk = append(disk, line)
				foreign[line] = true
			}
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
	b.WriteString("worker,runs,new,branched,pruned,elapsed_ms\n")
	for i, st := range s.workerStats {
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%d\n",
			i, st.Runs, st.New, st.Branched, st.Pruned, st.Elapsed.Milliseconds())
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

// load resumes session state from the results directory, under the directory
// lock so a concurrent writer's rename cannot race the reads. Torn or
// malformed lines — a crashed writer's last batch, a partial line from a
// concurrent append — are skipped and counted in LoadWarnings instead of
// aborting the resume.
func (s *Session) load() error {
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return fmt.Errorf("explore: results dir: %w", err)
	}
	return s.withDirLock(func() error {
		if data, err := os.ReadFile(filepath.Join(s.Dir, seenFile)); err == nil {
			id := 0
			for _, line := range strings.Split(string(data), "\n") {
				if line = strings.TrimSpace(line); line != "" {
					// Discovery order; exact run ids live in runs.csv.
					if s.markSeen(line, id) {
						id++
					}
				}
			}
		}
		if f, err := os.Open(filepath.Join(s.Dir, runsFile)); err == nil {
			sc := bufio.NewScanner(f)
			sc.Buffer(make([]byte, 1<<16), 1<<20)
			for sc.Scan() {
				line := strings.TrimSpace(sc.Text())
				if line == "" || strings.HasPrefix(line, "run,") {
					continue
				}
				cells := strings.Split(line, ",")
				if len(cells) < 7 {
					s.loadWarnings++ // torn append from a crashed writer
					continue
				}
				s.runs++
				if d, err := strconv.Atoi(cells[2]); err == nil && d > s.maxDepth {
					s.maxDepth = d
				}
				switch cells[4] {
				case OutcomeAssertFail.String(), OutcomeDeadlock.String(), OutcomePanic.String():
					s.failures++
				}
			}
			f.Close()
			if err := sc.Err(); err != nil {
				return fmt.Errorf("explore: resuming %s: %w", runsFile, err)
			}
		}
		if data, err := os.ReadFile(filepath.Join(s.Dir, frontierFile)); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if line == "" {
					continue
				}
				prefix, err := parsePrefix(line)
				if err != nil {
					s.loadWarnings++ // corrupt entry; the rest of the frontier stands
					continue
				}
				s.frontier.push(prefixFlip(prefix))
			}
		}
		repros, _ := filepath.Glob(filepath.Join(s.Dir, "repro-*.sched"))
		sort.Strings(repros)
		s.repros = repros
		for _, path := range repros {
			if _, choices, err := LoadRepro(path); err == nil {
				// Outcome is encoded in the file name: repro-<outcome>-NNN.sched.
				base := strings.TrimPrefix(filepath.Base(path), "repro-")
				outcome := base
				if i := strings.LastIndexByte(base, '-'); i >= 0 {
					outcome = base[:i]
				}
				s.reproSigs[outcome+"|"+formatPrefix(choices)] = true
			}
		}
		// Corrupt-line warnings surface through LoadWarnings: load runs
		// inside NewSession, before a caller can attach a Verbose logger.
		return nil
	})
}
