package dataset

import (
	"fmt"
	"strconv"
)

// Kind enumerates column value types.
type Kind uint8

const (
	// KindInt is a 64-bit integer column.
	KindInt Kind = iota
	// KindFloat is a 64-bit floating point column.
	KindFloat
	// KindString is a variable-width string column.
	KindString
	// KindDate is a date column stored as days since epoch.
	KindDate
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindDate:
		return "date"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Value is a single column value. Exactly one payload field is meaningful,
// selected by K. It is the view type tests, display and predicate builders
// read one value through; relations and frames store typed Vectors.
type Value struct {
	K Kind
	I int64 // payload for KindInt and KindDate
	F float64
	S string
}

// Int wraps an int64 as a Value.
func Int(v int64) Value { return Value{K: KindInt, I: v} }

// Float wraps a float64 as a Value.
func Float(v float64) Value { return Value{K: KindFloat, F: v} }

// Str wraps a string as a Value.
func Str(v string) Value { return Value{K: KindString, S: v} }

// Date wraps days-since-epoch as a Value.
func Date(days int64) Value { return Value{K: KindDate, I: days} }

// String renders the value: decimal integers, shortest %g floats, the
// string itself. Two Values of one kind render alike iff they are the same
// logical value. The batch engine renders its group keys straight from a
// column with Vector.AppendText, which appends this same text.
func (v Value) String() string {
	var buf [32]byte
	return string(v.AppendText(buf[:0]))
}

// AppendText appends the value's text to b: the one rendering String,
// Vector.AppendText and the batch engine's shuffle share.
func (v Value) AppendText(b []byte) []byte {
	switch v.K {
	case KindInt, KindDate:
		return strconv.AppendInt(b, v.I, 10)
	case KindFloat:
		return strconv.AppendFloat(b, v.F, 'g', -1, 64)
	case KindString:
		return append(b, v.S...)
	}
	return b
}

// Row is a tuple of column values: how a frame shows one of its rows, not
// how anything is stored.
type Row []Value
