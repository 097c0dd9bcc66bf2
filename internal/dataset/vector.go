package dataset

// Vector is one column of a relation or of an engine frame: a typed slice
// selected by its kind ([]int64 for KindInt and KindDate, []float64,
// []string) and the encoded byte size of its values, summed once when the
// vector is built. A vector is immutable after construction, so scans,
// frames and statistics share it without copying.
type Vector struct {
	kind   Kind
	ints   []int64
	floats []float64
	strs   []string
	bytes  int64
}

// IntVector wraps integers as a column of kind k (KindInt or KindDate).
func IntVector(k Kind, v []int64) Vector {
	return Vector{kind: k, ints: v, bytes: 8 * int64(len(v))}
}

// FloatVector wraps floats as a KindFloat column.
func FloatVector(v []float64) Vector {
	return Vector{kind: KindFloat, floats: v, bytes: 8 * int64(len(v))}
}

// StringVector wraps strings as a KindString column.
func StringVector(v []string) Vector {
	var bytes int64
	for _, s := range v {
		bytes += int64(len(s))
	}
	return Vector{kind: KindString, strs: v, bytes: bytes}
}

// Kind returns the column's value type. Kind, Ints, Floats and Strings are
// read per element by the engine's typed kernels and must not allocate.
//
//saqp:hotpath
func (v Vector) Kind() Kind { return v.kind }

// Ints returns the values of a KindInt or KindDate column, nil otherwise.
//
//saqp:hotpath
func (v Vector) Ints() []int64 { return v.ints }

// Floats returns the values of a KindFloat column, nil otherwise.
//
//saqp:hotpath
func (v Vector) Floats() []float64 { return v.floats }

// Strings returns the values of a KindString column, nil otherwise.
//
//saqp:hotpath
func (v Vector) Strings() []string { return v.strs }

// Len returns the number of values.
func (v Vector) Len() int { return len(v.ints) + len(v.floats) + len(v.strs) }

// Bytes returns the total encoded width of the values — the unit of all
// D_in/D_med/D_out accounting.
func (v Vector) Bytes() int64 { return v.bytes }

// At returns value i as the tagged view type, for tests and display.
func (v Vector) At(i int) Value {
	switch v.kind {
	case KindFloat:
		return Float(v.floats[i])
	case KindString:
		return Str(v.strs[i])
	}
	return Value{K: v.kind, I: v.ints[i]}
}

// AppendText appends the text of value i to b, as Value.String renders it.
func (v Vector) AppendText(b []byte, i int) []byte { return v.At(i).appendText(b) }

// Relation is a materialised table: a schema plus one generated vector per
// schema column, all of the same length. A relation Generate returns also
// keeps, per float and string column, the domain key each row was drawn
// from (Keys); one built as a literal keeps none.
type Relation struct {
	Schema *Schema
	Cols   []Vector
	keys   [][]int64
}

// Keys returns the domain keys column j's rows were drawn from, or nil: for
// an int or date column (its values are its keys), and for a relation not
// made by Generate. Equal keys are equal values, because the float and
// string mappings are injective on every schema's domain (makeString while
// the column's cardinality stays within 36^width), so a key counts its
// column's distinct values without hashing them. The slice is shared, not
// copied: it must not be written.
func (r *Relation) Keys(j int) []int64 {
	if r.keys == nil {
		return nil
	}
	return r.keys[j]
}

// NumRows returns the number of materialised rows.
func (r *Relation) NumRows() int64 {
	if len(r.Cols) == 0 {
		return 0
	}
	return int64(r.Cols[0].Len())
}

// Bytes returns the total encoded size of the materialised values.
func (r *Relation) Bytes() int64 {
	var total int64
	for i := range r.Cols {
		total += r.Cols[i].bytes
	}
	return total
}
