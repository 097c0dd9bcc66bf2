package dataset

import (
	"fmt"
	"hash/fnv"
)

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
	// Card returns the number of distinct values at scale factor sf, at
	// least 1. For FK columns it must equal the referenced table's key
	// cardinality.
	Card func(sf float64) int64
	// Dist is the value distribution.
	Dist Dist
	// Skew is the Zipf exponent when Dist == DistZipf (must be > 1).
	Skew float64
	// Lo is key 0's value (Column.Domain).
	Lo int64
	// Ref names "table.column" when this column is a foreign key; used by
	// referential-integrity checks and natural-join selectivity (Eq. 6).
	Ref string
}

// Domain is where a column's values lie at one scale factor: each value is
// drawn as a key k in [0, Card), and a numeric column's key k is the value
// Lo + k·Step. A string column's key is rendered by makeString instead, so
// only its Card means anything.
type Domain struct {
	// Card is the number of keys.
	Card int64
	// Lo is key 0's value.
	Lo int64
	// Step is the value step per key: 1 for int and date columns, 0.01 for
	// float columns.
	Step float64
}

// Domain returns the column's domain at scale factor sf.
func (c *Column) Domain(sf float64) Domain {
	step := 1.0
	if c.Kind == KindFloat {
		step = 0.01
	}
	return Domain{Card: c.Card(sf), Lo: c.Lo, Step: step}
}

// Value returns key k's value as a float64. The generator computes an int
// or date column's values in integer arithmetic, Lo + k, which this equals
// while both stay within ±2^53.
func (d Domain) Value(k int64) float64 { return float64(d.Lo) + float64(k)*d.Step }

// Width returns the span of the domain's values, Card steps: its values lie
// in [Value(0), Value(0)+Width()).
func (d Domain) Width() float64 { return float64(d.Card) * d.Step }

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

// FragFactor models HDFS file fragmentation: tables are written as many
// files whose tails leave splits below one full block, so the effective
// bytes-per-map varies by table. The factor is a deterministic hash of the
// table name into [0.45, 1.0]. The estimator and the execution engine both
// read it here, so measured and estimated task granularities agree.
func FragFactor(table string) float64 {
	h := fnv.New32a()
	h.Write([]byte(table))
	return 0.45 + 0.55*float64(h.Sum32()%1000)/999
}
