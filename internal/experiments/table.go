package experiments

import (
	"fmt"
	"io"
	"strings"

	"mcbench/internal/cache"
	"mcbench/internal/cpu"
	"mcbench/internal/trace"
	"mcbench/internal/uncore"
)

// Table is a printable experiment result: a title, column headers and
// rows of cells. Cells are pre-formatted strings so each experiment
// controls its own precision.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carries paper-vs-measured commentary lines.
	Notes []string
}

// AddRow appends a row from formatted values.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Columns)
	printRow(dashes(widths))
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Fprint(&sb)
	return sb.String()
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// f2, f3, f4 format floats with fixed precision.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }

// measureMPKI runs one benchmark alone on the 1-core LRU uncore with the
// detailed core and returns its steady-state memory intensity: LLC demand
// misses plus prefetch fills (i.e. off-chip line fetches) per
// kilo-instruction, measured on a second, warmed trace iteration so that
// cold misses — which dominate at our reduced trace scale — are excluded.
// Counting fills rather than only demand misses keeps prefetch-friendly
// streams (libquantum-style) classified by their true memory traffic.
func measureMPKI(tr *trace.Trace) (float64, error) {
	unc, err := uncore.New(uncore.ConfigFor(1, cache.LRU))
	if err != nil {
		return 0, err
	}
	core, err := cpu.New(0, cpu.DefaultConfig(), tr, unc)
	if err != nil {
		return 0, err
	}
	core.Run(tr.Len()) // warm-up iteration
	unc.ResetStats()
	core.Run(tr.Len())
	s := unc.Stats()
	return float64(s.DemandMisses+s.PrefetchIssued) * 1000 / float64(tr.Len()), nil
}
