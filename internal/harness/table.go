package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// Table is the one rendering of an experiment. The arm builds it from
// its measurements, the terminal shows it (Fprint), `qibench -o` writes it
// (WriteCSV) and qistat reads it back (ReadCSV) and shows it again; the
// aggregate lines under a table are a function of its cells, never of the
// measurements behind them, so both tools print the same lines for one run.
// Its columns are the header its Experiment row declares.
type Table struct {
	exp  *Experiment
	cols []string
	rows [][]string
}

func (e *Experiment) newTable() *Table {
	return &Table{exp: e, cols: strings.Split(e.header, ",")}
}

// add appends a row: durations as exact milliseconds, anything else (labels,
// integer counters) by its default format. Floats come pre-formatted, since
// the decimals kept are the column's choice.
func (t *Table) add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		if d, ok := c.(time.Duration); ok {
			row[i] = ms(d)
		} else {
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// String names the table the way qistat's summary line does.
func (t *Table) String() string {
	return fmt.Sprintf("%s table, %d rows", t.exp.Name, len(t.rows))
}

// col returns the index of a column the table's own experiment declared.
func (t *Table) col(name string) int {
	for i, c := range t.cols {
		if c == name {
			return i
		}
	}
	panic(fmt.Sprintf("harness: %s table has no column %q", t.exp.Name, name))
}

// num reads a numeric cell; "-" (not applicable) reads as NaN. The cells of a
// table an arm built and of one ReadCSV accepted always parse.
func (t *Table) num(row []string, col string) float64 {
	v, err := strconv.ParseFloat(row[t.col(col)], 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

// dur reads a duration cell back to the nanosecond it was written from (ms
// writes whole nanoseconds exactly), so a threshold on a ratio of two
// makespans decides the same from the file as from the measurement; 0 for
// "-" or any cell that is not a duration.
func (t *Table) dur(row []string, col string) time.Duration {
	d, _ := time.ParseDuration(row[t.col(col)] + "ms")
	return d
}

// Fprint renders the table in aligned columns — labels to the left, numbers
// to the right — followed by the experiment's aggregate lines.
func (t *Table) Fprint(w io.Writer) {
	fprintAligned(w, t.exp.labels, append([][]string{t.cols}, t.rows...))
	if t.exp.summary != nil {
		fmt.Fprintln(w)
		t.exp.summary(w, t)
	}
}

func fprintAligned(w io.Writer, labels int, lines [][]string) {
	width := make([]int, len(lines[0]))
	for _, line := range lines {
		for i, c := range line {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	for _, line := range lines {
		var sb strings.Builder
		for i, c := range line {
			if i < labels {
				fmt.Fprintf(&sb, "%-*s  ", width[i], c)
			} else {
				fmt.Fprintf(&sb, "%*s  ", width[i], c)
			}
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	}
}

// WriteCSV writes the header and every row.
func (t *Table) WriteCSV(w io.Writer) error {
	return csv.NewWriter(w).WriteAll(append([][]string{t.cols}, t.rows...)) // WriteAll flushes
}

// ReadCSV reads a file WriteCSV wrote. It trusts nothing: the header must be
// exactly the one a registered experiment declares, every row must have the
// header's field count, and every cell outside the label columns must be a
// number or "-"; the error names the line.
func ReadCSV(r io.Reader) (*Table, error) {
	cr := csv.NewReader(r) // FieldsPerRecord 0: every record as long as the first
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("csv header: %w", err)
	}
	var t *Table
	var known []string
	for i := range Experiments {
		e := &Experiments[i]
		known = append(known, e.Name)
		if e.header == strings.Join(header, ",") {
			t = e.newTable()
		}
	}
	if t == nil {
		return nil, fmt.Errorf("csv header %q is not the table of any experiment (%s)", strings.Join(header, ","), strings.Join(known, ", "))
	}
	for {
		row, err := cr.Read()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err // a *csv.ParseError: names the line
		}
		for i := t.exp.labels; i < len(row); i++ {
			if _, err := strconv.ParseFloat(row[i], 64); err != nil && row[i] != "-" {
				line, _ := cr.FieldPos(i)
				return nil, fmt.Errorf("line %d: column %s: %q is not a number", line, t.cols[i], row[i])
			}
		}
		t.rows = append(t.rows, row)
	}
}

// ms renders a duration as milliseconds with six decimals: durations are whole
// nanoseconds, so the cell is exact and reading it back loses nothing.
func ms(d time.Duration) string {
	return fmt.Sprintf("%d.%06d", d/time.Millisecond, d%time.Millisecond)
}

func ftoa(v float64, decimals int) string { return strconv.FormatFloat(v, 'f', decimals, 64) }
