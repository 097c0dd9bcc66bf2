package dataset

import (
	"strconv"
	"strings"

	"saqp/internal/par"
	"saqp/internal/sim"
)

// Generate materialises a relation for the given schema at scale factor sf,
// deterministically from seed. Two calls with identical arguments produce
// identical relations. Column streams are seeded independently (by table
// and column name), so adding a column never perturbs the others — and
// the columns are generated in parallel, each worker writing only its own
// column's slot. The relation keeps the domain keys its float and string
// columns were drawn from (Relation.Keys).
//
// Materialisation is intended for laptop-scale factors (sf <= ~0.1); large
// experiment scales are handled analytically via Schema.RowsAt/BytesAt and
// the catalog statistics, mirroring how the paper's estimator never scans
// full tables at run time.
func Generate(s *Schema, sf float64, seed uint64) *Relation {
	n := int(s.RowsAt(sf))
	rel := &Relation{Schema: s, Cols: make([]Vector, len(s.Columns)), keys: make([][]int64, len(s.Columns))}
	par.For(len(s.Columns), func(_ *struct{}, ci int) {
		c := &s.Columns[ci]
		rel.Cols[ci], rel.keys[ci] = generateColumn(c, n, sf, columnSeed(seed, s.Name, c.Name))
	})
	return rel
}

// columnSeed derives a per-column seed from the master seed and names.
func columnSeed(seed uint64, table, column string) uint64 {
	return seed ^ sim.FNV64a(table+"."+column)
}

// generateColumn produces the n-value vector of one column and, for a
// float or string column, the domain key each row was drawn from. An int or
// date column returns nil keys: its values are its keys shifted by Lo, and
// their slice is the vector's. A string column's values are cut from one
// buffer (stringColumn).
func generateColumn(c *Column, n int, sf float64, seed uint64) (Vector, []int64) {
	rng := sim.New(seed)
	dom := c.Domain(sf)
	card := dom.Card
	keys := make([]int64, n)
	switch c.Dist {
	case DistSequential:
		for i := range keys {
			keys[i] = int64(i) % card
		}
	case DistUniform:
		rng.FillInt63n(keys, card)
	case DistZipf:
		z := sim.NewZipf(rng, c.Skew, 1, uint64(card))
		for i := range keys {
			keys[i] = int64(z.Uint64())
		}
	case DistClustered:
		sim.ClusteredKeys(rng, keys, card)
	}
	switch c.Kind {
	case KindFloat:
		vals := make([]float64, n)
		for i, k := range keys {
			vals[i] = dom.Value(k)
		}
		return FloatVector(vals), keys
	case KindString:
		return StringVector(stringColumn(c, keys, card)), keys
	}
	for i := range keys {
		keys[i] += dom.Lo
	}
	return IntVector(c.Kind, keys), nil
}

// stringColumn returns the values of string column c for keys, drawn from
// [0, card): each value is a substring of one strings.Builder's string, so
// the column costs the same few allocations however many rows it has. The
// buffer holds one slot per row when the domain has more keys than the
// column has rows, and otherwise one per distinct key drawn, in the order
// of each key's first row. A slot is the value's width rounded up to 16
// bytes and zero-padded, so every value starts 16-byte aligned, like most
// strings allocated on their own. A value kept past the relation keeps its
// whole column's buffer alive.
func stringColumn(c *Column, keys []int64, card int64) []string {
	width := c.AvgWidth()
	stride := (width + 15) &^ 15
	slot := make([]byte, stride) // one value, then zeros to the stride
	vals := make([]string, len(keys))
	var b strings.Builder
	if card > int64(len(keys)) {
		b.Grow(len(keys) * stride)
		for _, k := range keys {
			appendString(slot[:0], c.Name, k, width)
			b.Write(slot)
		}
		buf := b.String()
		for i := range vals {
			vals[i] = buf[i*stride : i*stride+width]
		}
		return vals
	}
	// first holds 1 + the slot of each key drawn (0: not drawn), counted
	// before the buffer is sized; slots are numbered in first-row order,
	// so a key's first row is the one whose slot is the next to write.
	first := make([]int32, card)
	var slots int32
	for _, k := range keys {
		if first[k] == 0 {
			slots++
			first[k] = slots
		}
	}
	b.Grow(int(slots) * stride)
	var written int32
	for _, k := range keys {
		if first[k] > written {
			appendString(slot[:0], c.Name, k, width)
			b.Write(slot)
			written++
		}
	}
	buf := b.String()
	for i, k := range keys {
		off := int(first[k]-1) * stride
		vals[i] = buf[off : off+width]
	}
	return vals
}

// makeString builds a deterministic string of exactly width bytes encoding
// domain key k (appendString). stringColumn applies the same mapping to a
// whole column without allocating a string per value.
func makeString(prefix string, k int64, width int) string {
	return string(appendString(nil, prefix, k, width))
}

// appendString appends the width bytes that encode domain key k. The
// mapping is injective for any width w as long as the column's cardinality
// stays within 36^w, so distinct counts hold by construction:
//
//   - narrow columns get the base-36 key alone (right-truncated to the
//     low-order digits, which are unique within the domain);
//   - wider columns get "<prefix>#<digits>" padded with '~' — a character
//     outside both the prefix alphabet and base-36 — so the key decodes
//     unambiguously regardless of prefix truncation.
func appendString(dst []byte, prefix string, k int64, width int) []byte {
	var buf [16]byte // an int64 in base 36 is at most 13 digits and a sign
	digits := strconv.AppendInt(buf[:0], k, 36)
	if len(digits) >= width {
		return append(dst, digits[len(digits)-width:]...)
	}
	maxPrefix := width - len(digits) - 1
	p := prefix
	if len(p) > maxPrefix {
		p = p[:maxPrefix]
	}
	dst = append(dst, p...)
	dst = append(dst, '#')
	dst = append(dst, digits...)
	for range width - len(p) - 1 - len(digits) {
		dst = append(dst, '~')
	}
	return dst
}
