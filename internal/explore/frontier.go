package explore

import (
	"fmt"
	"strconv"
	"strings"

	"qithread/internal/core"
	"qithread/internal/trace"
)

// flip is one frontier entry — one forced prefix nobody has run yet —
// stored as a reference instead of a copy: "resolve decisions [0,pos) the way
// the run that logged *log did, then take alternative alt at decision pos".
// Every flip branched from one run shares that run's decision log, which is
// never written after the run ends, so an entry costs two words however long
// the prefix is and a run's ~L flips cost O(L) together, not O(L²). The zero
// flip is the empty prefix: the all-defaults baseline run.
type flip struct {
	log      *[]core.Choice
	pos, alt int32
}

// prefixFlip wraps an explicit forced prefix (a caller's RunForced argument, a
// minimization candidate) as the flip of its own last decision.
// The flip aliases prefix; the caller must not write it while a run uses it.
func prefixFlip(prefix []core.Choice) flip {
	if len(prefix) == 0 {
		return flip{}
	}
	last := len(prefix) - 1
	alt := prefix[last].Index
	if alt != int(int32(alt)) {
		alt = -1 // no candidate list is that long: out of range either way, the run takes the default
	}
	return flip{log: &prefix, pos: int32(last), alt: int32(alt)}
}

// depth is the length of the forced prefix.
func (f flip) depth() int {
	if f.log == nil {
		return 0
	}
	return int(f.pos) + 1
}

// logLen is the number of decisions the run this flip was branched from
// resolved (for a standalone prefix, its length).
func (f flip) logLen() int {
	if f.log == nil {
		return 0
	}
	return len(*f.log)
}

// index returns the candidate index the prefix forces at decision k < depth.
func (f flip) index(k int) int {
	if k == int(f.pos) {
		return int(f.alt)
	}
	return (*f.log)[k].Index
}

// flipQueue is the FIFO frontier, kept in fixed-size chunks: a push never
// moves the entries already queued, a pop clears its slot, and a drained
// chunk is dropped whole — so neither the queue's own storage nor a decision
// log whose flips have all been popped stays reachable.
type flipQueue struct {
	chunks [][]flip // chunks[0][head:] is the front
	head   int
	n      int
}

// flipChunk is 16 KiB of entries: large enough that chunk bookkeeping
// vanishes, small enough that a drained chunk is returned promptly.
const flipChunk = 1024

func (q *flipQueue) len() int { return q.n }

func (q *flipQueue) push(f flip) {
	if k := len(q.chunks); k == 0 || len(q.chunks[k-1]) == flipChunk {
		q.chunks = append(q.chunks, make([]flip, 0, flipChunk))
	}
	last := &q.chunks[len(q.chunks)-1]
	*last = append(*last, f)
	q.n++
}

// pop removes and returns the oldest entry; the queue must not be empty.
func (q *flipQueue) pop() flip {
	c := q.chunks[0]
	f := c[q.head]
	c[q.head] = flip{}
	q.head++
	q.n--
	if q.head == len(c) { // a full chunk, or the partly filled last one
		q.chunks[0] = nil
		q.chunks = q.chunks[1:]
		q.head = 0
	}
	return f
}

// each calls fn on every queued entry, oldest first.
func (q *flipQueue) each(fn func(flip)) {
	for i, c := range q.chunks {
		if i == 0 {
			c = c[q.head:]
		}
		for _, f := range c {
			fn(f)
		}
	}
}

// frontierHeader opens frontier.txt.
const frontierHeader = "qithread-frontier v2"

// appendFile renders the queue as frontier.txt holds it: the header, then one
// group per stretch of queued entries sharing a decision log — an "L" line
// spelling the log once (appendPrefix; "-" is the empty log of the baseline)
// and an "F" line of the entries' pos:alt pairs in queue order. The file is
// the queue's own shape, O(logs + flips) bytes, not one prefix per entry.
func (q *flipQueue) appendFile(dst []byte) []byte {
	dst = append(dst, frontierHeader...)
	var cur *[]core.Choice
	open := false
	q.each(func(f flip) {
		if !open || f.log != cur {
			dst = append(dst, "\nL "...)
			if f.log == nil {
				dst = appendPrefix(dst, nil)
			} else {
				dst = appendPrefix(dst, *f.log)
			}
			dst = append(dst, "\nF"...)
			cur, open = f.log, true
		}
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(f.pos), 10)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(f.alt), 10)
	})
	return append(dst, '\n')
}

// readFrontier rebuilds the queue appendFile rendered, structure sharing
// included: every entry of a group points at the one log its "L" line parsed
// to. It also reports the deepest entry, and how many lines it skipped — an
// "L" line that does not parse, an "F" line without a log before it or with a
// pair that is not two int32s or whose position is past the log, anything
// else. Skipping is per line: the groups around a bad one stand. A file that
// does not open with frontierHeader loads as empty, every line skipped.
func readFrontier(rows []string) (q flipQueue, deepest, skipped int) {
	if len(rows) == 0 || rows[0] != frontierHeader {
		return q, 0, len(rows)
	}
	var log *[]core.Choice // of the group whose "F" line comes next
	var group []flip
	for _, row := range rows[1:] {
		kind, rest, _ := strings.Cut(row, " ")
		if kind == "L" {
			log = nil
			if prefix, err := parsePrefix(rest); err == nil {
				log = &prefix
			} else {
				skipped++
			}
			continue
		}
		if kind != "F" || log == nil {
			skipped++
			continue
		}
		var ok bool
		if group, ok = parseFlips(group[:0], rest, log); !ok {
			skipped++
		} else {
			for _, f := range group {
				q.push(f)
				deepest = max(deepest, f.depth())
			}
		}
		log = nil
	}
	return q, deepest, skipped
}

// parseFlips appends the entries an "F" line's pos:alt pairs denote over log,
// and reports whether every pair was one. Over the empty log the only entry
// is 0:0, the baseline.
func parseFlips(dst []flip, pairs string, log *[]core.Choice) ([]flip, bool) {
	for _, pair := range strings.Fields(pairs) {
		p, a, _ := strings.Cut(pair, ":")
		pos, err1 := strconv.ParseInt(p, 10, 32)
		alt, err2 := strconv.ParseInt(a, 10, 32)
		f := flip{log: log, pos: int32(pos), alt: int32(alt)}
		switch {
		case err1 != nil || err2 != nil || pos < 0:
			return dst, false
		case len(*log) == 0 && pos == 0 && alt == 0:
			f = flip{}
		case int(pos) >= len(*log):
			return dst, false
		}
		dst = append(dst, f)
	}
	return dst, len(dst) > 0
}

// formatPrefix renders a forced prefix on one line: space-separated
// kind:n:def:index quads, "-" for the empty prefix.
func formatPrefix(prefix []core.Choice) string {
	return string(appendPrefix(make([]byte, 0, 8*len(prefix)+1), prefix))
}

func appendPrefix(dst []byte, prefix []core.Choice) []byte {
	if len(prefix) == 0 {
		return append(dst, '-')
	}
	for i, c := range prefix {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendUint(dst, uint64(c.Kind), 10)
		for _, v := range [...]int{c.N, c.Def, c.Index} {
			dst = append(dst, ':')
			dst = strconv.AppendInt(dst, int64(v), 10)
		}
	}
	return dst
}

// parsePrefix inverts formatPrefix. Anything else — a quad with a missing,
// extra or non-numeric field, or one past the bounds trace.ParseChoice holds
// every spelling of a decision to (frontier entries store counts and indices
// as int32) — is an error, which the loader counts as one torn line.
func parsePrefix(line string) ([]core.Choice, error) {
	if line == "-" {
		return nil, nil
	}
	fields := strings.Fields(line)
	out := make([]core.Choice, len(fields))
	for i, f := range fields {
		var err error
		if out[i], err = trace.ParseChoice(strings.Split(f, ":")); err != nil {
			return nil, fmt.Errorf("bad choice %q: %v", f, err)
		}
	}
	return out, nil
}
