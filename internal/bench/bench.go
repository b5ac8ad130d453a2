// Package bench regenerates the paper's evaluation artifacts — Fig. 7
// and Tables II through VI — on the simulated substrate. Each experiment
// returns structured rows plus a formatted text table whose columns
// match the paper's, so results can be compared side by side (shape,
// not absolute numbers: the substrate is a simulator, not the authors'
// 9-node testbed).
package bench

import (
	"fmt"
	"strings"
)

// Scale selects experiment sizing.
type Scale int

const (
	// ScaleSmoke is test-suite sizing (seconds).
	ScaleSmoke Scale = iota
	// ScaleDefault is the default CLI sizing (a few minutes).
	ScaleDefault
	// ScalePaper is the paper's sizing where feasible (RMAT-23..26 need
	// tens of GB of RAM and hours; use on a large machine only).
	ScalePaper
)

// ParseScale maps a CLI string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "smoke":
		return ScaleSmoke, nil
	case "default", "":
		return ScaleDefault, nil
	case "paper", "full":
		return ScalePaper, nil
	default:
		return 0, fmt.Errorf("bench: unknown scale %q (smoke|default|paper)", s)
	}
}

// Table is a rendered experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n", t.Title)
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
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
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
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func mib(bytes int64) string {
	return fmt.Sprintf("%.1f", float64(bytes)/(1<<20))
}
