package selectivity

import (
	"math"

	"saqp/internal/core/floats"
	"saqp/internal/histogram"
	"saqp/internal/query"
)

// defaultIneqSel is the textbook fallback selectivity for inequality
// predicates on columns without histograms (strings).
const defaultIneqSel = 1.0 / 3.0

// PredSelectivity estimates the fraction of rows satisfying one predicate
// that no histogram mask expresses: an IN list sums its members' equality
// selectivities, and a comparison on a column without a histogram, or
// against a string literal, uses distinct counts for equality and the
// standard 1/3 heuristic for inequalities. Numeric comparisons on
// histogram-backed columns never come here — scanConjunction intersects
// them in one bucket walk (histogram.NarrowedTotals). It runs once per
// such predicate each time a query misses the plan cache, on the
// submitting goroutine, so it must not allocate.
//
//saqp:hotpath
func PredSelectivity(cs *ColStat, p query.Predicate) float64 {
	if cs == nil {
		return defaultIneqSel
	}
	if p.Op == query.OpIN {
		return inSelectivity(cs, p)
	}
	return stringPredSelectivity(cs, p)
}

// inSelectivity sums equality selectivities over an IN list's members.
//
//saqp:hotpath
func inSelectivity(cs *ColStat, p query.Predicate) float64 {
	var s float64
	d := math.Max(cs.Distinct, 1)
	for _, lit := range p.Set {
		if cs.Hist != nil && !lit.IsString {
			s += cs.Hist.SelectivityEQ(lit.F)
		} else {
			s += 1 / d
		}
	}
	return floats.Clamp01(s)
}

// stringPredSelectivity handles comparisons no histogram answers: the
// column lacks one, or the literal is a string.
//
//saqp:hotpath
func stringPredSelectivity(cs *ColStat, p query.Predicate) float64 {
	d := math.Max(cs.Distinct, 1)
	switch p.Op {
	case query.OpEQ:
		return floats.Clamp01(1 / d)
	case query.OpNE:
		return floats.Clamp01(1 - 1/d)
	default:
		return defaultIneqSel
	}
}

// predCol is one predicated column of a scan, evaluated once: every other
// column's "others" factor and the scan's S_pred are products of these.
type predCol struct {
	ref query.ColumnRef
	cs  *ColStat // base statistics; nil for a column the table lacks
	// masks are the column's comparisons a histogram mask expresses
	// exactly; raw is the product of those it cannot (IN lists, string
	// operators), which apply as a uniform scale instead; factor is the
	// column's whole conjunction.
	masks       []histogram.Cond
	raw, factor float64
}

// scanConjunction estimates the fraction of a scan's rows passing all its
// local conjuncts (S_pred), and returns the per-column factors it is the
// product of, in column order. Predicates on *different* columns multiply
// under the independence assumption (the approach the paper's S_pred
// inherits from the histogram literature it cites); predicates on the
// *same* numeric column are intersected exactly — BETWEEN-style range pairs
// are not independent events — by one bucket walk over the comparisons a
// histogram mask expresses, equal to the bit to sequential Filter calls
// followed by Rows(); the rest (IN lists, string predicates) multiply in.
// pcs and conds are scratch to append to.
func scanConjunction(t *table, preds []query.Predicate, pcs []predCol, conds []histogram.Cond) ([]predCol, float64) {
	for i := range preds {
		p := &preds[i]
		if p.IsJoin() {
			continue
		}
		k := 0
		for k < len(pcs) && pcs[k].ref.Column < p.Left.Column {
			k++
		}
		if k == len(pcs) || pcs[k].ref != p.Left {
			pcs = append(pcs, predCol{})
			copy(pcs[k+1:], pcs[k:])
			pcs[k] = predCol{ref: p.Left, cs: t.col(p.Left), raw: 1}
		}
	}
	s := 1.0
	for k := range pcs {
		pc, start := &pcs[k], len(conds)
		maskable := pc.cs != nil && pc.cs.Hist != nil
		for i := range preds {
			p := &preds[i]
			if p.IsJoin() || p.Left != pc.ref {
				continue
			}
			if maskable && p.Op != query.OpIN && !p.Lit.IsString {
				conds = append(conds, histogram.Cond{Op: p.Op, X: p.Lit.F})
			} else {
				pc.raw *= PredSelectivity(pc.cs, *p)
			}
		}
		pc.masks, pc.factor = conds[start:len(conds):len(conds)], pc.raw
		if len(pc.masks) > 0 {
			if orig := pc.cs.Hist.Rows(); orig > 0 {
				rows, _ := pc.cs.Hist.NarrowedTotals(pc.masks, 1)
				pc.factor *= floats.Clamp01(rows / orig)
			}
		}
		pc.factor = floats.Clamp01(pc.factor)
		s *= pc.factor
	}
	return pcs, floats.Clamp01(s)
}

// narrowColumn applies a scan's predicates to one needed column's base
// statistics. Predicates on the column itself reshape its histogram via
// Filter (zeroing excluded buckets — crucial when the column later joins);
// predicates on *other* columns scale it uniformly, per the independence
// assumption. newRows is the filtered row count |T|·S_pred. The histogram
// is materialised, in a, only when n.hist says a join reads it; a group
// key's surviving distinct count comes from the same bucket walk without one.
func narrowColumn(a *histogram.Arena, base *ColStat, n need, pcs []predCol, newRows float64) ColStat {
	nc := *base
	nc.Hist = nil
	// own is the own-column selectivity no histogram mask expresses (all of
	// it, for a column without a histogram); others multiplies the other
	// columns' factors, range pairs already intersected.
	own, others := 1.0, 1.0
	var masks []histogram.Cond
	for k := range pcs {
		if pcs[k].ref == n.ref {
			own, masks = pcs[k].raw, pcs[k].masks
		} else {
			others *= pcs[k].factor
		}
	}
	others = floats.Clamp01(others)
	d := base.Distinct * own
	if base.Hist != nil && n.hist {
		h := base.Hist
		for _, c := range masks {
			h = h.Filter(a, c.Op, c.X)
		}
		// With no local predicate the scale is by exactly 1, the identity:
		// share the catalog's histogram rather than copy it.
		if len(pcs) > 0 {
			h = h.Scale(a, others*own)
		}
		nc.Hist, d = h, h.DistinctTotal()
	} else if base.Hist != nil {
		_, d = base.Hist.NarrowedTotals(masks, others*own)
	}
	nc.Distinct = math.Min(d, newRows)
	if nc.Distinct < 1 && newRows >= 1 {
		nc.Distinct = 1
	}
	return nc
}
