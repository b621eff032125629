package stats

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Table is a simple text table used by the experiment harness to print
// figure/table reproductions in aligned columns.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case float32:
			row[i] = formatFloat(float64(v))
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// FormatG renders v in the shortest form that round-trips ('g', -1):
// the number format of the Prometheus, span-breakdown and other
// machine-read exporters.
func FormatG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ErrWriter is the sticky-error writer the text exporters build their
// output with: after the first failed write every Str is a no-op, and
// Err reports that first error once the export is done.
type ErrWriter struct {
	W   io.Writer
	Err error
}

// Str writes s unless an earlier write failed.
func (e *ErrWriter) Str(s string) {
	if e.Err != nil {
		return
	}
	_, e.Err = io.WriteString(e.W, s)
}

// GeoMean returns the geometric mean of xs (which must be positive);
// it returns 0 for an empty slice. The paper reports several figures as
// means across benchmarks; geometric mean is used for ratios.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// ArithMean returns the arithmetic mean of xs, or 0 if empty.
func ArithMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
