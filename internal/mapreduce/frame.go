package mapreduce

import (
	"fmt"

	"saqp/internal/dataset"
	"saqp/internal/query"
)

// Frame is a materialised intermediate result: named, qualified columns,
// one typed vector each, plus a row count. It plays the role of one job's
// HDFS output directory. Vectors are immutable, so a scan's frame shares
// its relation's columns and a downstream job shares its upstream's.
type Frame struct {
	// Cols are qualified column names ("table.column", or synthetic names
	// like "J3.agg0" for aggregate outputs).
	Cols []string

	vecs []dataset.Vector
	n    int
}

// NewFrame builds an n-row frame from one vector per column. The row count
// is explicit because a scan that reads no column (count(*)) still has rows.
func NewFrame(n int, cols []string, vecs []dataset.Vector) *Frame {
	return &Frame{Cols: cols, vecs: vecs, n: n}
}

// Col returns the index of a qualified column name, or -1.
func (f *Frame) Col(name string) int {
	for i, c := range f.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// column resolves a reference against the frame, once per job; what names
// the role of a missing column in the error.
func (f *Frame) column(what string, c query.ColumnRef) (dataset.Vector, error) {
	if i := f.Col(c.String()); i >= 0 {
		return f.vecs[i], nil
	}
	return dataset.Vector{}, fmt.Errorf("%s %s not in input", what, c)
}

// NumRows returns the row count.
func (f *Frame) NumRows() int64 { return int64(f.n) }

// Bytes returns the total encoded size of the frame's values.
func (f *Frame) Bytes() int64 {
	var t int64
	for i := range f.vecs {
		t += f.vecs[i].Bytes()
	}
	return t
}

// At returns the value of column j in row i.
func (f *Frame) At(i, j int) dataset.Value { return f.vecs[j].At(i) }

// Row assembles row i as a tuple of values — a view for tests and display,
// not how the frame is stored.
func (f *Frame) Row(i int) dataset.Row {
	row := make(dataset.Row, len(f.vecs))
	for j := range f.vecs {
		row[j] = f.vecs[j].At(i)
	}
	return row
}

// Validate checks that the frame has one vector per column and every
// vector one value per row.
func (f *Frame) Validate() error {
	if len(f.vecs) != len(f.Cols) {
		return fmt.Errorf("mapreduce: %d vectors for %d columns", len(f.vecs), len(f.Cols))
	}
	for j := range f.vecs {
		if n := f.vecs[j].Len(); n != f.n {
			return fmt.Errorf("mapreduce: column %s has %d values for %d rows", f.Cols[j], n, f.n)
		}
	}
	return nil
}
