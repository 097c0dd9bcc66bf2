package main

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"reflect"
	"strconv"
	"strings"
	"text/tabwriter"
)

// A cell's type says how the terminal shows it. The CSV never rounds for
// display: it carries strings as they are, ints in decimal and every
// float — whichever of these types it wears — to four decimals, which is
// also how the terminal shows a plain float64.
type (
	secs  float64 // seconds, to a tenth
	whole float64 // a mean that reads best without decimals
	pct   float64 // a fraction, shown as a percentage
	times float64 // a ratio, shown as "2.15x"
)

func (v secs) String() string  { return fmt.Sprintf("%.1f", float64(v)) }
func (v whole) String() string { return fmt.Sprintf("%.0f", float64(v)) }
func (v pct) String() string   { return fmt.Sprintf("%.2f%%", 100*float64(v)) }
func (v times) String() string { return fmt.Sprintf("%.2fx", float64(v)) }

// table is what one -exp row produces: the data, once, for both renderers.
type table struct {
	title string
	// head names the columns; the names are the CSV's heading line.
	head []string
	// rows hold one cell per column; nil marks a cell that does not apply
	// ("N/A" on the terminal, empty in the CSV).
	rows [][]any
	// every > 1 makes the terminal show only every n-th row of a long
	// scatter; the CSV always carries all of them.
	every int
	// notes are printed under the table: the row's summary lines and the
	// paper's figures for comparison.
	notes []string
}

// newTable starts a table whose columns are the space-separated names.
func newTable(title, columns string) *table {
	return &table{title: title, head: strings.Fields(columns)}
}

// add appends one row of cells, in column order.
func (t *table) add(cells ...any) { t.rows = append(t.rows, cells) }

// cell renders v for the terminal or for the CSV.
func cell(v any, terminal bool) string {
	if v == nil {
		if terminal {
			return "N/A"
		}
		return ""
	}
	if _, shown := v.(fmt.Stringer); shown && terminal {
		return fmt.Sprint(v)
	}
	if rv := reflect.ValueOf(v); rv.Kind() == reflect.Float64 {
		return strconv.FormatFloat(rv.Float(), 'f', 4, 64)
	}
	return fmt.Sprint(v)
}

// print renders the table for the terminal.
func (t *table) print(out io.Writer) error {
	fmt.Fprintf(out, "\n================ %s ================\n", t.title)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(t.head, "\t"))
	line := make([]string, len(t.head))
	for i, row := range t.rows {
		if t.every > 1 && i%t.every != 0 {
			continue
		}
		for j, v := range row {
			line[j] = cell(v, true)
		}
		fmt.Fprintln(w, strings.Join(line, "\t"))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	for _, n := range t.notes {
		fmt.Fprintln(out, n)
	}
	return nil
}

// writeCSV writes the heading line and every row to path.
func (t *table) writeCSV(path string) error {
	records := [][]string{t.head}
	for _, row := range t.rows {
		rec := make([]string, len(row))
		for j, v := range row {
			rec[j] = cell(v, false)
		}
		records = append(records, rec)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := csv.NewWriter(f).WriteAll(records); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
