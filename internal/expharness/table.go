package expharness

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// Kind says how both renderers print a column's cells and which Go type
// the cells hold.
type Kind int

// Column kinds.
const (
	String   Kind = iota // string, left-aligned
	Int                  // int64
	Duration             // time.Duration: rounded in text, integer nanoseconds in CSV
	Ratio                // float64 quotient (speedup, calls per edge, average degree)
)

// Column is one column of a Table. A Duration column's CSV header is Name
// with "_ns" appended, naming the unit the CSV writer converts to.
type Column struct {
	Name string
	Kind Kind
}

// Table is what every experiment returns: the series of one table, figure
// or ablation, with the columns stated once for both renderers.
type Table struct {
	Title   string
	Columns []Column
	// Rows holds one cell per column, of the Go type the column's Kind names.
	Rows [][]any
}

// add appends one row; a cell count that does not match the columns is a
// bug in the experiment loop.
func (t *Table) add(cells ...any) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("expharness: %s: row of %d cells for %d columns", t.Title, len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// cell renders v for the text series or, with forCSV, at full precision.
func (k Kind) cell(v any, forCSV bool) string {
	switch k {
	case Int:
		return strconv.FormatInt(v.(int64), 10)
	case Duration:
		if forCSV {
			return strconv.FormatInt(v.(time.Duration).Nanoseconds(), 10)
		}
		return rd(v.(time.Duration))
	case Ratio:
		if forCSV {
			return strconv.FormatFloat(v.(float64), 'g', 8, 64)
		}
		return strconv.FormatFloat(v.(float64), 'f', 3, 64)
	default:
		return v.(string)
	}
}

// WriteText prints the title, then the header and rows in aligned columns.
func (t Table) WriteText(w io.Writer) error {
	lines := make([][]string, 0, len(t.Rows)+1)
	header := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		header[i] = c.Name
	}
	lines = append(lines, header)
	for _, r := range t.Rows {
		line := make([]string, len(r))
		for i, v := range r {
			line[i] = t.Columns[i].Kind.cell(v, false)
		}
		lines = append(lines, line)
	}
	width := make([]int, len(t.Columns))
	for _, line := range lines {
		for i, s := range line {
			width[i] = max(width[i], utf8.RuneCountInString(s)) // %*s pads in runes; "905µs" is 5
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	for _, line := range lines {
		for i, s := range line {
			if i > 0 {
				b.WriteByte(' ')
			}
			if t.Columns[i].Kind == String {
				fmt.Fprintf(&b, "%-*s", width[i], s)
			} else {
				fmt.Fprintf(&b, "%*s", width[i], s)
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV writes the header and one record per row.
func (t Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	rec := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		rec[i] = c.Name
		if c.Kind == Duration {
			rec[i] += "_ns"
		}
	}
	if err := cw.Write(rec); err != nil {
		return err
	}
	for _, r := range t.Rows {
		for i, v := range r {
			rec[i] = t.Columns[i].Kind.cell(v, true)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// rd rounds durations for display.
func rd(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Microsecond).String()
	}
}
