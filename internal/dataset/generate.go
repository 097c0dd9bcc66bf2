package dataset

import (
	"hash/fnv"
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
	h := fnv.New64a()
	h.Write([]byte(table))
	h.Write([]byte{'.'})
	h.Write([]byte(column))
	return seed ^ h.Sum64()
}

// generateColumn produces the n-value vector of one column and, for a
// float or string column, the domain key each row was drawn from. An int or
// date column returns nil keys: its values are its keys shifted by Lo, and
// their slice is the vector's.
func generateColumn(c *Column, n int, sf float64, seed uint64) (Vector, []int64) {
	rng := sim.New(seed)
	card := c.Card(sf)
	if card < 1 {
		card = 1
	}
	keys := make([]int64, n)
	switch c.Dist {
	case DistSequential:
		for i := range keys {
			keys[i] = int64(i) % card
		}
	case DistUniform:
		for i := range keys {
			keys[i] = rng.Int63n(card)
		}
	case DistZipf:
		skew := c.Skew
		if skew <= 1 {
			skew = 1.2
		}
		z := sim.NewZipf(rng, skew, 1, uint64(card))
		for i := range keys {
			keys[i] = int64(z.Uint64())
		}
	case DistClustered:
		copy(keys, sim.ClusteredKeys(rng, n, card))
	}
	// Each kind's kernel is materialize's mapping, applied to the whole
	// vector without building a Value per row.
	switch c.Kind {
	case KindFloat:
		vals := make([]float64, n)
		for i, k := range keys {
			vals[i] = floatValue(c.Lo, k)
		}
		return FloatVector(vals), keys
	case KindString:
		vals := make([]string, n)
		width := c.AvgWidth()
		if card > int64(n) {
			for i, k := range keys {
				vals[i] = makeString(c.Name, k, width)
			}
			return StringVector(vals), keys
		}
		// No more keys than rows: each key's string is built once, on its
		// first row, and shared by the rows after it (width >= 1, so ""
		// marks a key not yet built).
		byKey := make([]string, card)
		for i, k := range keys {
			if byKey[k] == "" {
				byKey[k] = makeString(c.Name, k, width)
			}
			vals[i] = byKey[k]
		}
		return StringVector(vals), keys
	}
	for i := range keys {
		keys[i] += c.Lo
	}
	return IntVector(c.Kind, keys), nil
}

// materialize turns an integer domain key into a concrete column value.
func materialize(c *Column, k int64) Value {
	switch c.Kind {
	case KindInt:
		return Int(c.Lo + k)
	case KindDate:
		return Date(c.Lo + k)
	case KindFloat:
		return Float(floatValue(c.Lo, k))
	case KindString:
		return Str(makeString(c.Name, k, c.AvgWidth()))
	}
	return Value{}
}

// floatValue is the value of domain key k of a float column whose domain
// starts at lo: one expression, shared by materialize and the column
// kernel so that both round alike.
func floatValue(lo, k int64) float64 { return float64(lo) + float64(k)*0.01 }

// makeString builds a deterministic string of exactly width bytes encoding
// domain key k. The mapping is injective for any width w as long as the
// column's cardinality stays within 36^w, so distinct counts hold by
// construction:
//
//   - narrow columns get the base-36 key alone (right-truncated to the
//     low-order digits, which are unique within the domain);
//   - wider columns get "<prefix>#<digits>" padded with '~' — a character
//     outside both the prefix alphabet and base-36 — so the key decodes
//     unambiguously regardless of prefix truncation.
func makeString(prefix string, k int64, width int) string {
	var buf [16]byte // an int64 in base 36 is at most 13 digits and a sign
	digits := strconv.AppendInt(buf[:0], k, 36)
	if len(digits) >= width {
		return string(digits[len(digits)-width:])
	}
	maxPrefix := width - len(digits) - 1
	p := prefix
	if len(p) > maxPrefix {
		p = p[:maxPrefix]
	}
	var b strings.Builder
	b.Grow(width)
	b.WriteString(p)
	b.WriteByte('#')
	b.Write(digits)
	for b.Len() < width {
		b.WriteByte('~')
	}
	return b.String()
}

// DomainValue returns the concrete value for domain key k of column c —
// the inverse mapping used by query generators to build predicates with a
// known target selectivity (e.g. "l_quantity < v" covering 30% of the
// domain).
func DomainValue(c *Column, k int64) Value { return materialize(c, k) }
