// Package experiments contains one runner per evaluation artifact of the
// paper (Figures 1–13 plus the §6.1 predictor-accuracy numbers) and the
// ablation studies in ablations.go. Each runner builds its workload,
// drives the simulator, and renders an ASCII table whose rows mirror the
// corresponding figure's series, so `cmd/s2c2-exp` and the benchmark
// harness regenerate the paper's results. Each table's notes give the
// paper's values next to the measured ones.
package experiments

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	// Notes carries methodology caveats printed under the table.
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render pretty-prints the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteString("\n")
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		b.WriteString("note: ")
		b.WriteString(n)
		b.WriteString("\n")
	}
	return b.String()
}

// f2 formats a float with 2 decimals; f3 with 3; f1 with 1.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// pct formats a fraction as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
