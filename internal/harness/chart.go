package harness

import (
	"fmt"
	"io"
	"strings"

	"qithread/internal/stats"
)

// chartWidth and chartClamp size Figure 8's bars: chartWidth characters span
// normalized times 0 to chartClamp, and a longer bar is clamped like the
// paper's broken axis (its value prints beside it).
const chartWidth, chartClamp = 48, 16

// fprintChart renders a Figure 8 table as horizontal ASCII bars, the
// counterpart of the artifact's generate-figure notebook. Each program shows
// one bar per configuration column the table holds, skipping "-" cells: its
// makespan over the non-det makespan, both read back to the nanosecond, so a
// table read from a file draws the same chart as the one the arm measured.
func fprintChart(w io.Writer, t *Table) {
	var modes []string
	for _, c := range t.cols[t.exp.labels:] {
		if m, ok := strings.CutSuffix(c, "_ms"); ok && m != Nondet().Name {
			modes = append(modes, m)
		}
	}
	suite := ""
	for _, row := range t.rows {
		if s := row[t.col("suite")]; s != suite {
			suite = s
			fmt.Fprintf(w, "\n== %s ==\n", suite)
			fmt.Fprintf(w, "%28s  %-12s|%s|\n", "", "", axis())
		}
		name := row[0]
		for _, m := range modes {
			if row[t.col(m+"_ms")] == "-" {
				continue
			}
			v := stats.Normalized(t.dur(row, m+"_ms"), t.dur(row, Nondet().Name+"_ms"))
			fmt.Fprintf(w, "%28s  %-12s|%s| %.2f\n", name, m, bar(v), v)
			name = ""
		}
	}
}

// axis is the chart's ruler, with a tick at 1.0 (the baseline).
func axis() string {
	a := []byte(strings.Repeat("-", chartWidth))
	a[chartWidth/chartClamp] = '+'
	return string(a)
}

func bar(v float64) string {
	n := int(v * (chartWidth / chartClamp))
	overflow := false
	if n > chartWidth {
		n = chartWidth
		overflow = true
	}
	if n < 1 {
		n = 1
	}
	b := strings.Repeat("#", n) + strings.Repeat(" ", chartWidth-n)
	if overflow {
		b = b[:chartWidth-1] + ">"
	}
	return b
}
