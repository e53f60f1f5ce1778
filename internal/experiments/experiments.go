// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment is a pure function of its parameters and a
// seed, returning a typed result with the same rows/series the paper
// reports plus a formatted rendering for the crbench tool and the
// benchmark harness. Experiments that record metrics, trace spans or
// progress take an *Env as their first argument; it observes the run and
// never changes its results. EXPERIMENTS.md records paper-vs-measured for
// each.
//
// The Monte-Carlo experiments share one call shape, (env, trials, seed),
// with trials 0 selecting the paper's count (Fig4 and Fig8 add an
// ideal-transceiver switch). Their independently seeded trials run
// through one loop, parallelMapWith, with one instrumented detector per
// worker, and every concurrent round is built by one fixture,
// concurrentRound. Sec5, Campaign, SwarmScale and FullBank run units
// that are not independent trials, in sequence under meter.timeTrial.
package experiments

import (
	"fmt"
	"strings"
)

// Table is a printable result grid.
type Table struct {
	// Title names the experiment (e.g. "Table I").
	Title string
	// Header labels the columns.
	Header []string
	// Rows holds the data cells, already formatted.
	Rows [][]string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Series is a printable (x, y) curve for figure reproductions.
type Series struct {
	// Name labels the curve.
	Name string
	// X and Y are the sample coordinates.
	X, Y []float64
}

// Sparkline renders the series as a compact ASCII plot of the given
// width, useful for terminal output of figure-style results.
func (s *Series) Sparkline(width int) string {
	if len(s.Y) == 0 || width < 1 {
		return ""
	}
	levels := []rune(" .:-=+*#%@")
	minY, maxY := s.Y[0], s.Y[0]
	for _, y := range s.Y {
		if y < minY {
			minY = y
		}
		if y > maxY {
			maxY = y
		}
	}
	span := maxY - minY
	out := make([]rune, width)
	for i := range out {
		// Down-sample by taking the maximum over the bucket so narrow
		// pulses stay visible.
		lo := i * len(s.Y) / width
		hi := (i + 1) * len(s.Y) / width
		if hi <= lo {
			hi = lo + 1
		}
		v := s.Y[lo]
		for _, y := range s.Y[lo:min(hi, len(s.Y))] {
			if y > v {
				v = y
			}
		}
		idx := 0
		if span > 0 {
			idx = int((v - minY) / span * float64(len(levels)-1))
		}
		out[i] = levels[idx]
	}
	return string(out)
}

func fmtF(v float64, prec int) string {
	return fmt.Sprintf("%.*f", prec, v)
}

func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", v) }
