package dataset

import "fmt"

// Dist enumerates the value distributions a generated column can follow.
type Dist uint8

const (
	// DistSequential assigns 0,1,2,... — primary keys.
	DistSequential Dist = iota
	// DistUniform draws uniformly from the column's domain.
	DistUniform
	// DistZipf draws with Zipf skew (hot keys), exponent Column.Skew.
	DistZipf
	// DistClustered draws uniformly but physically clusters equal values in
	// runs — the "clustered group-by keys" case of the paper's Eq. 2.
	DistClustered
)

// String returns the lowercase name of the distribution.
func (d Dist) String() string {
	switch d {
	case DistSequential:
		return "sequential"
	case DistUniform:
		return "uniform"
	case DistZipf:
		return "zipf"
	case DistClustered:
		return "clustered"
	}
	return fmt.Sprintf("dist(%d)", uint8(d))
}

// Column describes one attribute of a synthetic table.
type Column struct {
	// Name is the column name, unique within the table.
	Name string
	// Kind is the value type.
	Kind Kind
	// Width is the average encoded width in bytes (strings are generated to
	// average this width; fixed types ignore it and use 8).
	Width int
	// Card returns the number of distinct values at scale factor sf.
	// For FK columns it must equal the referenced table's key cardinality.
	Card func(sf float64) int64
	// Dist is the value distribution.
	Dist Dist
	// Skew is the Zipf exponent when Dist == DistZipf (must be > 1).
	Skew float64
	// Lo is the smallest domain value (ints/dates); domain is [Lo, Lo+Card).
	Lo int64
	// Ref names "table.column" when this column is a foreign key; used by
	// referential-integrity checks and natural-join selectivity (Eq. 6).
	Ref string
}

// AvgWidth returns the column's average encoded width in bytes.
func (c *Column) AvgWidth() int {
	switch c.Kind {
	case KindString:
		if c.Width > 0 {
			return c.Width
		}
		return 16
	default:
		return 8
	}
}

// Schema describes one synthetic table.
type Schema struct {
	// Name is the table name.
	Name string
	// Columns are the table's attributes in order.
	Columns []Column
	// RowsAt returns the table's row count at scale factor sf.
	RowsAt func(sf float64) int64
}

// Column returns the column with the given name, or nil.
func (s *Schema) Column(name string) *Column {
	for i := range s.Columns {
		if s.Columns[i].Name == name {
			return &s.Columns[i]
		}
	}
	return nil
}

// ColumnIndex returns the position of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	for i := range s.Columns {
		if s.Columns[i].Name == name {
			return i
		}
	}
	return -1
}

// AvgTupleWidth returns the average encoded row width in bytes — the
// denominator of the paper's projection selectivity S_proj.
func (s *Schema) AvgTupleWidth() int {
	w := 0
	for i := range s.Columns {
		w += s.Columns[i].AvgWidth()
	}
	return w
}

// BytesAt returns the table's total size in bytes at scale factor sf.
func (s *Schema) BytesAt(sf float64) int64 {
	return s.RowsAt(sf) * int64(s.AvgTupleWidth())
}
