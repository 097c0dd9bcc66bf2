package catalog

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"sync"

	"saqp/internal/dataset"
	"saqp/internal/histogram"
	"saqp/internal/par"
)

// DefaultBuckets is the histogram resolution used when callers do not
// specify one.
const DefaultBuckets = 64

// ColumnStats summarises one column.
type ColumnStats struct {
	Name     string       `json:"name"`
	Kind     dataset.Kind `json:"kind"`
	Distinct int64        `json:"distinct"`
	AvgWidth float64      `json:"avg_width"`
	// Min and Max bound the numeric domain (ints, floats, dates). For
	// string columns both are 0 and Hist is nil.
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Hist is the equi-width histogram for numeric columns.
	Hist *histogram.Histogram `json:"hist,omitempty"`
	// Clustered records whether equal values are physically adjacent —
	// selects between the two S_comb cases of Eq. 2.
	Clustered bool `json:"clustered"`
	// TopShare is the row share of the single most frequent value — the
	// most-common-value statistic that exposes hash-partition skew which
	// equi-width buckets smear out.
	TopShare float64 `json:"top_share"`
	// Ref is "table.column" when this column is a foreign key.
	Ref string `json:"ref,omitempty"`
}

// TableStats summarises one table.
type TableStats struct {
	Name          string                  `json:"name"`
	Rows          int64                   `json:"rows"`
	Bytes         int64                   `json:"bytes"`
	AvgTupleWidth float64                 `json:"avg_tuple_width"`
	Columns       map[string]*ColumnStats `json:"columns"`
}

// Catalog maps table names to statistics.
type Catalog struct {
	Tables map[string]*TableStats `json:"tables"`
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{Tables: make(map[string]*TableStats)}
}

// Table returns stats for the named table, or an error naming the table.
func (c *Catalog) Table(name string) (*TableStats, error) {
	t, ok := c.Tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: no statistics for table %q", name)
	}
	return t, nil
}

// Put installs (or replaces) statistics for a table. A catalog is built up
// front and then immutable: selectivity.NewEstimator prepares its view once
// and shares the histograms, so no Put or write through a TableStats follows.
func (c *Catalog) Put(t *TableStats) { c.Tables[t.Name] = t }

// Fingerprint returns a short stable hash of the catalog's statistical
// identity: table names, row/byte counts, tuple widths and per-column
// (distinct, domain) summaries. Two catalogs with equal fingerprints
// yield the same estimates for the same plan, so the serving layer folds
// the fingerprint into its plan/estimate cache keys — a server rebuilt
// over fresh statistics can never serve stale cached estimates. Tables
// and columns hash in sorted-name order, so the value is deterministic
// across runs.
func (c *Catalog) Fingerprint() string {
	h := fnv.New64a()
	var buf [8]byte
	num := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	names := make([]string, 0, len(c.Tables))
	for name := range c.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := c.Tables[name]
		h.Write([]byte(name))
		h.Write([]byte{0})
		num(uint64(t.Rows))
		num(uint64(t.Bytes))
		num(math.Float64bits(t.AvgTupleWidth))
		cols := make([]string, 0, len(t.Columns))
		for cn := range t.Columns {
			cols = append(cols, cn)
		}
		sort.Strings(cols)
		for _, cn := range cols {
			cs := t.Columns[cn]
			h.Write([]byte(cn))
			h.Write([]byte{0})
			num(uint64(cs.Distinct))
			num(math.Float64bits(cs.Min))
			num(math.Float64bits(cs.Max))
			num(math.Float64bits(cs.TopShare))
			if cs.Hist != nil {
				num(uint64(len(cs.Hist.Buckets)))
			}
		}
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// Collect scans a materialised relation and produces exact statistics with
// histograms of the given bucket count (DefaultBuckets if n <= 0). A float
// or string column is counted through the domain keys its rows were drawn
// from (dataset.Relation.Keys) when the relation kept them, and by its
// values when it did not; the statistics are the same either way.
func Collect(rel *dataset.Relation, n int) *TableStats {
	if n <= 0 {
		n = DefaultBuckets
	}
	s := rel.Schema
	ts := &TableStats{
		Name:    s.Name,
		Rows:    rel.NumRows(),
		Bytes:   rel.Bytes(),
		Columns: make(map[string]*ColumnStats, len(s.Columns)),
	}
	if ts.Rows > 0 {
		ts.AvgTupleWidth = float64(ts.Bytes) / float64(ts.Rows)
	}
	// Columns are summarised in parallel, each into its own slot, and enter
	// the map afterwards in schema order.
	cols := make([]*ColumnStats, len(s.Columns))
	par.For(len(cols), func(_ *struct{}, ci int) {
		cols[ci] = collectColumn(rel.Cols[ci], rel.Keys(ci), &s.Columns[ci], n)
	})
	for _, cs := range cols {
		ts.Columns[cs.Name] = cs
	}
	return ts
}

// collectColumn summarises one column in one counting pass over integer
// codes: an int or date column's values, or keys, the domain keys a float
// or string column's rows were drawn from (nil when there are none). Equal
// codes are equal values, so no value is hashed or rendered to be counted.
// Two cases count values instead: a float or string column without keys,
// floats by their bits and strings by the string, and integers beyond
// ±2^53, where distinct values can round to one float64. The histogram
// takes its per-bucket distinct counts from the same count, and buckets an
// int or date column's []int64 as it is, without a float64 copy.
func collectColumn(vec dataset.Vector, keys []int64, col *dataset.Column, n int) *ColumnStats {
	if ints := vec.Ints(); ints != nil {
		return collectCodes(vec, ints, ints, col, n)
	}
	return collectCodes(vec, keys, vec.Floats(), col, n)
}

// collectCodes is collectColumn for a column whose histogram buckets vals
// (nil for strings).
func collectCodes[T int64 | float64](vec dataset.Vector, keys []int64, vals []T, col *dataset.Column, n int) *ColumnStats {
	const exact = 1 << 53
	if lo, hi := bounds(keys); keys != nil && -exact < lo && hi < exact {
		return summarize(vec, col, n, vals, countCodes(keys, lo, hi, vals))
	}
	switch vec.Kind() {
	case dataset.KindString:
		return summarize(vec, col, n, vals, countValues(vec.Strings(), func(s string) string { return s }, nil))
	case dataset.KindFloat:
		return summarize(vec, col, n, vals, countValues(vec.Floats(), math.Float64bits, floatValues))
	}
	return summarize(vec, col, n, vals, countValues(vec.Ints(), func(v int64) int64 { return v }, intValues))
}

// counts is what one counting pass over a column learns.
type counts struct {
	distinct      int64     // distinct values, under the identity a value groups by
	uniq          []float64 // numeric columns: each distinct float64 value once
	top           int64     // the most frequent value's count
	adjacentEqual int       // rows equal to their predecessor
}

// summarize completes the statistics of column col from its vector, its
// values as the histogram buckets them (nil for strings) in row order and
// their counts, with a histogram of at most n buckets. Min and Max are the
// float64 of the least and greatest value.
func summarize[T int64 | float64](vec dataset.Vector, col *dataset.Column, n int, vals []T, c counts) *ColumnStats {
	cs := &ColumnStats{Name: col.Name, Kind: col.Kind, Ref: col.Ref, Distinct: c.distinct}
	rows := vec.Len()
	if rows > 0 {
		cs.AvgWidth = float64(vec.Bytes()) / float64(rows)
		cs.TopShare = float64(c.top) / float64(rows)
	}
	// A column is "clustered" when equal values sit together far more often
	// than random placement would produce. Random placement yields about
	// rows/distinct adjacent pairs; require 4x that, and at least 10% runs.
	if rows > 1 && cs.Distinct > 0 {
		expectRandom := float64(rows) / float64(cs.Distinct)
		cs.Clustered = float64(c.adjacentEqual) > 4*expectRandom &&
			float64(c.adjacentEqual) > 0.1*float64(rows)
	}
	if vals != nil && rows > 0 {
		min, max := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			f := float64(v)
			if f < min {
				min = f
			}
			if f > max {
				max = f
			}
		}
		hi := max + 1 // domain is [min, max+1) so max lands in the last bucket
		if hi <= min {
			// One float64 value beyond ±2^53, where max+1 rounds back to max.
			hi = math.Nextafter(min, math.Inf(1))
		}
		cs.Min, cs.Max = min, max
		nb := n
		if int64(nb) > cs.Distinct {
			nb = int(cs.Distinct)
		}
		cs.Hist = histogram.BuildDistinct(vals, c.uniq, min, hi, nb)
	}
	return cs
}

// countValues counts a column's values in a map under key — the identity a
// value groups by, which for floats is the bit pattern so that +0 and -0
// stay two values — and, for a numeric column, has values turn the counts
// into the distinct float64 values.
func countValues[T, K comparable](vals []T, key func(T) K, values func(map[K]int64) []float64) counts {
	var c counts
	freq := make(map[K]int64)
	for i, v := range vals {
		freq[key(v)]++
		if i > 0 && v == vals[i-1] {
			c.adjacentEqual++
		}
	}
	for _, m := range freq {
		c.top = max(c.top, m)
	}
	c.distinct = int64(len(freq))
	if values != nil {
		c.uniq = values(freq)
	}
	return c
}

// bounds returns the least and the greatest of codes (MaxInt64 and
// MinInt64 when there are none).
func bounds(codes []int64) (lo, hi int64) {
	lo, hi = math.MaxInt64, math.MinInt64
	for _, v := range codes {
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi
}

// denseRange reports whether a column of rows codes, all in [lo, hi], is
// counted in one int32 slot per code of the range: when the range
// hi−lo+1 is at most 4 × rows, the slots cost less than a map would.
func denseRange(lo, hi int64, rows int) bool {
	return rows > 0 && rows <= math.MaxInt32 && uint64(hi)-uint64(lo) < 4*uint64(rows)
}

// countCodes counts a column through integer codes, all in [lo, hi],
// equal codes being equal values. A code's first row is one more distinct
// value and, for a numeric column, adds that row's value as a float64
// (vals is nil for strings) to uniq, which so comes out in first-row
// order. How a code is counted depends on the range of the codes against
// the rows:
//
//   - up to 4 × rows (denseRange), in one slot per code;
//   - up to 128 × rows, in one bit per code, set at the code's first row,
//     and a map of the codes seen again, which holds few (at SF 0.01, 0.4
//     to 4.1 % of the rows of the TPC-H price columns); the bits take no
//     more room than a map of one entry per row;
//   - wider, in a map sized for one code per row,
//
// so that no table sized to the rows grows while counting.
func countCodes[T int64 | float64](codes []int64, lo, hi int64, vals []T) counts {
	var c counts
	for i := 1; i < len(codes); i++ {
		if codes[i] == codes[i-1] {
			c.adjacentEqual++
		}
	}
	span := uint64(hi) - uint64(lo)
	if vals != nil {
		c.uniq = make([]float64, 0, min(span+1, uint64(len(codes))))
	}
	switch {
	case denseRange(lo, hi, len(codes)):
		slots := make([]int32, span+1)
		for i, k := range codes {
			m := slots[uint64(k)-uint64(lo)] + 1
			slots[uint64(k)-uint64(lo)] = m
			add(&c, vals, i, int64(m))
		}
	case span < 128*uint64(len(codes)):
		seen := make([]uint64, span/64+1)
		again := make(map[int64]int64) // the rows so far of a code seen again
		for i, k := range codes {
			o := uint64(k) - uint64(lo)
			m := int64(1)
			if bit := uint64(1) << (o % 64); seen[o/64]&bit == 0 {
				seen[o/64] |= bit
			} else {
				m = max(again[k], 1) + 1
				again[k] = m
			}
			add(&c, vals, i, m)
		}
	default:
		freq := make(map[int64]int64, len(codes))
		for i, k := range codes {
			m := freq[k] + 1
			freq[k] = m
			add(&c, vals, i, m)
		}
	}
	return c
}

// add records row i as the m-th row of its code in c.
func add[T int64 | float64](c *counts, vals []T, i int, m int64) {
	if m == 1 {
		c.distinct++
		if vals != nil {
			c.uniq = append(c.uniq, float64(vals[i]))
		}
	}
	c.top = max(c.top, m)
}

// floatValues returns the distinct float64 values among bit-pattern
// counts: −0 beside +0 is one value, and every NaN row a value of its own.
// Map order reaches the slice, which is harmless: histogram.BuildDistinct
// only counts its values per bucket.
func floatValues(freq map[uint64]int64) []float64 {
	uniq := make([]float64, 0, len(freq))
	//lint:allow saqpvet/determinism uniq is only counted per bucket by histogram.BuildDistinct, in any order alike
	for bits, c := range freq {
		switch f := math.Float64frombits(bits); {
		case math.IsNaN(f):
			for ; c > 0; c-- {
				uniq = append(uniq, f)
			}
		case bits == 1<<63 && freq[0] > 0:
		default:
			uniq = append(uniq, f)
		}
	}
	return uniq
}

// intValues returns the distinct float64 values of counted integers, in
// map order like floatValues. Beyond ±2^53 distinct integers can round to
// one float64.
func intValues(freq map[int64]int64) []float64 {
	const exact = 1 << 53
	uniq := make([]float64, 0, len(freq))
	var wide map[float64]bool
	//lint:allow saqpvet/determinism uniq is only counted per bucket by histogram.BuildDistinct, in any order alike
	for v := range freq {
		f := float64(v)
		if -exact < v && v < exact {
			uniq = append(uniq, f)
			continue
		}
		if wide == nil {
			wide = make(map[float64]bool)
		}
		if !wide[f] {
			wide[f] = true
			uniq = append(uniq, f)
		}
	}
	return uniq
}

// FromSchema derives statistics analytically at scale factor sf without
// materialising any rows. Histograms are synthesized from the declared
// distribution: uniform/sequential/clustered columns get flat bucket
// weights; Zipf columns get bucket masses integrated from the Zipf density,
// so the skew the estimator must cope with is preserved.
func FromSchema(s *dataset.Schema, sf float64, n int) *TableStats {
	ts := analyticTable(s, sf, len(s.Columns))
	for ci := range s.Columns {
		ts.synthesize(nil, &s.Columns[ci], sf, n)
	}
	return ts
}

// FromSchemaColumns is FromSchema for a reader that knows what it will ask:
// the table-level figures are the whole table's, but only the columns named
// in cols (those of them s has) get statistics. Their histograms are cut
// from a (allocated if a is nil), so the statistics are valid until a's
// next Reset.
func FromSchemaColumns(a *histogram.Arena, s *dataset.Schema, sf float64, n int, cols []string) *TableStats {
	ts := analyticTable(s, sf, len(cols))
	for _, name := range cols {
		if col := s.Column(name); col != nil {
			ts.synthesize(a, col, sf, n)
		}
	}
	return ts
}

// analyticTable returns s's table-level statistics at sf, with room for
// ncols columns and none yet.
func analyticTable(s *dataset.Schema, sf float64, ncols int) *TableStats {
	return &TableStats{
		Name:          s.Name,
		Rows:          s.RowsAt(sf),
		Bytes:         s.BytesAt(sf),
		AvgTupleWidth: float64(s.AvgTupleWidth()),
		Columns:       make(map[string]*ColumnStats, ncols),
	}
}

// synthesize adds col's analytic statistics at sf, with a histogram of at
// most n buckets (DefaultBuckets if n <= 0) cut from a.
func (ts *TableStats) synthesize(a *histogram.Arena, col *dataset.Column, sf float64, n int) {
	if n <= 0 {
		n = DefaultBuckets
	}
	rows := ts.Rows
	// Values are drawn from the column's whole domain even when few rows
	// exist; distinct is capped at the row count.
	dom := col.Domain(sf)
	cs := &ColumnStats{
		Name:      col.Name,
		Kind:      col.Kind,
		Distinct:  min(dom.Card, rows),
		AvgWidth:  float64(col.AvgWidth()),
		Clustered: col.Dist == dataset.DistClustered || col.Dist == dataset.DistSequential,
		Ref:       col.Ref,
		TopShare:  analyticTopShare(col, dom.Card, rows),
	}
	if col.Kind != dataset.KindString {
		cs.Min = dom.Value(0)
		cs.Max = cs.Min + dom.Width()
		// Never use more buckets than distinct domain values: integer
		// rounding would otherwise pile all rows into one bucket.
		nb := n
		if int64(nb) > dom.Card {
			nb = int(dom.Card)
		}
		var weights []float64
		if col.Dist == dataset.DistZipf {
			weights = zipfBucketWeights(col.Skew, dom.Card, nb)
		}
		cs.Hist = histogram.Synthesize(a, rows, dom.Card, cs.Min, nb, weights)
		// Synthesize labels the axis [Min, Min+Card) in key steps. The
		// key→value map is affine, so relabelling the axis to the domain's
		// span is exact, and a step of 1 leaves it as it was.
		cs.Hist.Lo, cs.Hist.Hi = cs.Min, cs.Max
	}
	ts.Columns[cs.Name] = cs
}

// analyticTopShare derives the most-common-value share from the declared
// distribution over card keys: the head of the Zipf law for skewed
// columns, 1/card for the rest.
func analyticTopShare(col *dataset.Column, card, rows int64) float64 {
	if rows <= 0 {
		return 0
	}
	uniform := 1 / float64(card)
	if col.Dist != dataset.DistZipf {
		return math.Min(1, uniform)
	}
	s := col.Skew
	// Normalising constant of P(k) ∝ (1+k)^-s over k ∈ [0, card): partial
	// sum of the head plus an integral tail.
	head := min(zipfHead, card)
	norm := zipfHeadSums(s)[head]
	if card > head {
		// ∫_{head}^{card} (1+x)^-s dx
		norm += (math.Pow(float64(1+head), 1-s) - math.Pow(float64(1+card), 1-s)) / (s - 1)
	}
	if norm <= 0 {
		return uniform
	}
	return math.Min(1, 1/norm)
}

// zipfHead is how many leading terms of the Zipf normalising constant are
// summed exactly before the integral tail takes over.
const zipfHead int64 = 1000

// zipfSums memoises zipfHeadSums per exponent. The terms depend on the
// exponent alone — not on the scale factor, the resolution or the column —
// and schemas declare a handful of exponents, so after the first catalog a
// column's sum is one lock-free Load; goroutines racing on a new exponent
// compute equal tables and one of them is kept.
var zipfSums sync.Map // float64 exponent → *[zipfHead + 1]float64

// zipfHeadSums returns the running sums of (1+k)^-s: entry h is the first
// h terms added in order from zero, bit for bit what a loop over them gives.
func zipfHeadSums(s float64) *[zipfHead + 1]float64 {
	if sums, ok := zipfSums.Load(s); ok {
		return sums.(*[zipfHead + 1]float64)
	}
	sums := new([zipfHead + 1]float64)
	for k := range sums[1:] {
		sums[k+1] = sums[k] + math.Pow(float64(1+k), -s)
	}
	kept, _ := zipfSums.LoadOrStore(s, sums)
	return kept.(*[zipfHead + 1]float64)
}

// zipfBucketWeights integrates the Zipf(s, v=1) density 1/(1+x)^s over n
// equal-width slices of [0, card).
func zipfBucketWeights(s float64, card int64, n int) []float64 {
	antideriv := func(x float64) float64 {
		// ∫ (1+x)^(-s) dx = (1+x)^(1-s) / (1-s)
		return math.Pow(1+x, 1-s) / (1 - s)
	}
	w := make([]float64, n)
	step := float64(card) / float64(n)
	// Slice i's upper edge, float64(i+1)*step, is slice i+1's lower edge:
	// the same expression, evaluated once.
	lo := antideriv(0)
	for i := range w {
		hi := antideriv(float64(i+1) * step)
		w[i] = hi - lo
		if w[i] < 0 {
			w[i] = 0
		}
		lo = hi
	}
	return w
}

// Encode serialises the catalog to JSON (the stand-in for statistics files
// stored on HDFS).
func (c *Catalog) Encode() ([]byte, error) { return json.Marshal(c) }

// Decode parses a catalog produced by Encode.
func Decode(data []byte) (*Catalog, error) {
	var c Catalog
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("catalog: decode: %w", err)
	}
	if c.Tables == nil {
		c.Tables = make(map[string]*TableStats)
	}
	// JSON null decodes to a nil pointer that Fingerprint and the
	// estimator would dereference.
	for name, t := range c.Tables {
		if t == nil {
			return nil, fmt.Errorf("catalog: decode: table %q is null", name)
		}
		for cn, cs := range t.Columns {
			if cs == nil {
				return nil, fmt.Errorf("catalog: decode: column %q.%q is null", name, cn)
			}
		}
	}
	return &c, nil
}

// CollectAll builds a catalog by materialising and scanning every schema at
// scale factor sf with the given seed — the ground-truth statistics path.
func CollectAll(schemas []*dataset.Schema, sf float64, seed uint64, n int) *Catalog {
	c := New()
	for _, s := range schemas {
		rel := dataset.Generate(s, sf, seed)
		c.Put(Collect(rel, n))
	}
	return c
}

// FromSchemas builds a catalog analytically for every schema at scale sf.
func FromSchemas(schemas []*dataset.Schema, sf float64, n int) *Catalog {
	c := New()
	for _, s := range schemas {
		c.Put(FromSchema(s, sf, n))
	}
	return c
}
