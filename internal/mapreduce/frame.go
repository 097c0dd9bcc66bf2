package mapreduce

import (
	"fmt"
	"slices"

	"saqp/internal/dataset"
	"saqp/internal/query"
)

// Frame is one job's output, the role of its HDFS output directory: named,
// qualified columns over typed vectors, plus a row count. Vectors are
// immutable, so a scan's frame shares its relation's columns and a
// downstream job shares its upstream's. A join's output is an index view:
// each side keeps its input's vectors and one row index that all of the
// side's columns read through. Nothing is copied until a later job resolves
// a column (Frame.column) or an Extract gathers its output, and nothing
// gathered is stored back: a frame never changes once built.
//
// A frame's vectors are always on the heap: relations' columns and job
// outputs (a Groupby's columns, an Extract's gathered ones). Its side
// indexes — match pairs and the indexes composed from them — and the
// columns a job gathers to read are cut from the query's scratch, so a
// view lives no longer than its query. The one frame that does is the
// sink, QueryResult.Final: RunQuery detaches it, copying its indexes onto
// the heap, before the scratch goes back to the engine.
type Frame struct {
	// Cols are qualified column names ("table.column", or synthetic names
	// like "J3.agg0" for aggregate outputs).
	Cols []string

	vecs  []dataset.Vector
	sides []side // nil: every vector is read directly
	n     int
}

// side is a run of a view's columns that read through one row index: the
// columns from the previous side's end up to end, whose row i is row
// rows[i] of their vectors. A nil index is the identity.
type side struct {
	end  int
	rows []int32
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

// index returns the row index column j reads through, nil for directly.
func (f *Frame) index(j int) []int32 {
	for _, s := range f.sides {
		if j < s.end {
			return s.rows
		}
	}
	return nil
}

// vector returns column j as a vector of the frame's rows: its own vector
// when read directly, a copy gathered into s when read through an index.
func (f *Frame) vector(s *scratch, j int) dataset.Vector {
	if rows := f.index(j); rows != nil {
		return s.gather(f.vecs[j], rows)
	}
	return f.vecs[j]
}

// column resolves a reference against the frame, once per job; what names
// the role of a missing column in the error.
func (f *Frame) column(s *scratch, what string, c query.ColumnRef) (dataset.Vector, error) {
	if j := f.Col(c.String()); j >= 0 {
		return f.vector(s, j), nil
	}
	return dataset.Vector{}, fmt.Errorf("%s %s not in input", what, c)
}

// identity reports whether sel selects all n rows of a frame, in order.
//
//saqp:hotpath
func identity(sel []int32, n int) bool {
	if len(sel) != n {
		return false
	}
	for i, r := range sel {
		if int(r) != i {
			return false
		}
	}
	return true
}

// through appends f's sides to dst as a view of the rows sel picks out of
// f, their column ends shifted by off: one index per side, composed with
// sel where the side already has one, into an index cut from s. A frame
// that is not a view is one side, and an identity sel leaves every side's
// index as it was.
func (f *Frame) through(s *scratch, dst []side, sel []int32, off int) []side {
	if identity(sel, f.n) {
		sel = nil
	}
	if f.sides == nil {
		return append(dst, side{off + len(f.vecs), sel})
	}
	for _, sd := range f.sides {
		rows := sd.rows
		switch {
		case sel == nil:
		case rows == nil:
			rows = sel
		default:
			rows = s.i32.cut(len(sel))
			take(rows, sd.rows, sel)
		}
		dst = append(dst, side{off + sd.end, rows})
	}
	return dst
}

// view returns the rows sel picks out of f, in selection order, as a view.
func (f *Frame) view(s *scratch, sel []int32) *Frame {
	return &Frame{Cols: f.Cols, vecs: f.vecs, sides: f.through(s, nil, sel, 0), n: len(sel)}
}

// gathered returns f as a plain frame, each column a vector of its own:
// shared where it is read directly, gathered onto the heap where through
// an index.
func (f *Frame) gathered() *Frame {
	vecs := make([]dataset.Vector, len(f.vecs))
	for j := range vecs {
		vecs[j] = f.vecs[j]
		if rows := f.index(j); rows != nil {
			vecs[j] = gather(f.vecs[j], rows)
		}
	}
	return NewFrame(f.n, f.Cols, vecs)
}

// detached returns f with its side indexes copied onto the heap: the
// query's sink, which outlives the scratch its indexes were cut from.
func (f *Frame) detached() *Frame {
	if f.sides == nil {
		return f
	}
	sides := make([]side, len(f.sides))
	for i, sd := range f.sides {
		sides[i] = side{sd.end, slices.Clone(sd.rows)}
	}
	return &Frame{Cols: f.Cols, vecs: f.vecs, sides: sides, n: f.n}
}

// joined is the view of matched row pairs: first's columns read through
// frows, then second's through srows.
func joined(s *scratch, first *Frame, frows []int32, second *Frame, srows []int32) *Frame {
	w := len(first.Cols) + len(second.Cols)
	sides := make([]side, 0, max(1, len(first.sides))+max(1, len(second.sides)))
	return &Frame{
		Cols:  append(append(make([]string, 0, w), first.Cols...), second.Cols...),
		vecs:  append(append(make([]dataset.Vector, 0, w), first.vecs...), second.vecs...),
		sides: second.through(s, first.through(s, sides, frows, 0), srows, len(first.Cols)),
		n:     len(frows),
	}
}

// NumRows returns the row count.
func (f *Frame) NumRows() int64 { return int64(f.n) }

// strBytes sums the lengths of the strings rows picks out of strs, each
// row read through via when via is not nil: the byte size of a view's
// string column, computed without gathering it.
//
//saqp:hotpath
func strBytes(strs []string, via, rows []int32) int64 {
	var t int64
	if via == nil {
		for _, r := range rows {
			t += int64(len(strs[r]))
		}
		return t
	}
	for _, r := range rows {
		t += int64(len(strs[via[r]]))
	}
	return t
}

// Bytes returns the total encoded size of the frame's values.
func (f *Frame) Bytes() int64 {
	var t int64
	for j, v := range f.vecs {
		switch rows := f.index(j); {
		case rows == nil:
			t += v.Bytes()
		case v.Kind() == dataset.KindString:
			t += strBytes(v.Strings(), nil, rows)
		default:
			t += 8 * int64(len(rows))
		}
	}
	return t
}

// rowBytes is the encoded size of the rows sel picks out of the frame.
// sel holds distinct rows, so one as long as the frame is all of it.
func (f *Frame) rowBytes(sel []int32) int64 {
	if len(sel) == f.n {
		return f.Bytes()
	}
	var t int64
	for j, v := range f.vecs {
		if v.Kind() == dataset.KindString {
			t += strBytes(v.Strings(), f.index(j), sel)
		} else {
			t += 8 * int64(len(sel))
		}
	}
	return t
}

// At returns the value of column j in row i.
func (f *Frame) At(i, j int) dataset.Value {
	if rows := f.index(j); rows != nil {
		i = int(rows[i])
	}
	return f.vecs[j].At(i)
}

// Row assembles row i as a tuple of values — a view for tests and display,
// not how the frame is stored.
func (f *Frame) Row(i int) dataset.Row {
	row := make(dataset.Row, len(f.vecs))
	for j := range f.vecs {
		row[j] = f.At(i, j)
	}
	return row
}

// Validate checks that the frame has one vector per column, that its sides
// cover every column, and that every column reads one in-range value per
// row.
func (f *Frame) Validate() error {
	if len(f.vecs) != len(f.Cols) {
		return fmt.Errorf("mapreduce: %d vectors for %d columns", len(f.vecs), len(f.Cols))
	}
	if k := len(f.sides); k > 0 && f.sides[k-1].end != len(f.vecs) {
		return fmt.Errorf("mapreduce: sides cover %d of %d columns", f.sides[k-1].end, len(f.vecs))
	}
	for j, v := range f.vecs {
		rows := f.index(j)
		if rows == nil {
			if n := v.Len(); n != f.n {
				return fmt.Errorf("mapreduce: column %s has %d values for %d rows", f.Cols[j], n, f.n)
			}
			continue
		}
		if len(rows) != f.n {
			return fmt.Errorf("mapreduce: column %s reads %d rows for %d", f.Cols[j], len(rows), f.n)
		}
		for _, r := range rows {
			if r < 0 || int(r) >= v.Len() {
				return fmt.Errorf("mapreduce: column %s reads row %d of %d", f.Cols[j], r, v.Len())
			}
		}
	}
	return nil
}
