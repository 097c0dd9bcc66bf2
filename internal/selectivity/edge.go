package selectivity

import (
	"saqp/internal/histogram"
	"saqp/internal/query"
)

// ColStat tracks the statistics of one column as data flows through a DAG:
// its (scaled) histogram, distinct count, average width, and whether equal
// values remain physically clustered.
type ColStat struct {
	// Hist is nil for string columns — and, on an edge, for a column whose
	// histogram nothing downstream reads.
	Hist     *histogram.Histogram
	Distinct float64
	// BaseDistinct is the column's cardinality in the unfiltered base
	// table — the paper's T.d_x in Eq. 2 — preserved as statistics flow
	// through filters and joins.
	BaseDistinct float64
	// TopShare is the most-common-value row share (hash-partition skew).
	// Preserved through uniform filters: the hot key's share of survivors
	// is unchanged when rows drop independently of the key.
	TopShare  float64
	Width     float64
	Clustered bool
}

// scaled returns the column statistics after the row count is multiplied
// by factor f (f <= 1 for filters, f > 1 possible after joins). Surviving
// distinct counts follow the Cardenas/Yao estimate — dropping rows
// uniformly keeps most values of a low-cardinality column alive — and can
// never exceed the new row count. The histogram is rescaled, into a new
// one cut from a, only when hist says a consumer reads it.
func (c *ColStat) scaled(a *histogram.Arena, f, newRows float64, hist bool) ColStat {
	out := *c
	out.Hist = nil
	if hist && c.Hist != nil {
		out.Hist = c.Hist.Scale(a, f)
	}
	if f < 1 {
		oldRows := 0.0
		if f > 0 {
			oldRows = newRows / f
		}
		out.Distinct = histogram.YaoDistinct(c.Distinct, oldRows, f)
	}
	if out.Distinct > newRows {
		out.Distinct = newRows
	}
	if out.Distinct < 1 && newRows >= 1 {
		out.Distinct = 1
	}
	return out
}

// need is one column that a job's operator, or a transitive consumer of
// its output, reads, and whether it reads the histogram (join and map-join
// keys) or only the scalars (group keys). A statistic flows along the DAG
// exactly as far as something reads it.
type need struct {
	ref  query.ColumnRef
	hist bool
}

// addNeed unions one column into a need set.
func addNeed(set []need, ref query.ColumnRef, hist bool) []need {
	for i := range set {
		if set[i].ref == ref {
			set[i].hist = set[i].hist || hist
			return set
		}
	}
	return append(set, need{ref, hist})
}

// edgeCol is one needed column's statistics on an edge.
type edgeCol struct {
	ref query.ColumnRef
	ColStat
}

// edge describes the data flowing along one DAG edge (a base-table scan
// after filtering+projection, or a job's output): row count, average tuple
// width, and statistics for those surviving columns something downstream
// reads, cut from the walk's column slab.
type edge struct {
	rows  float64
	width float64 // average tuple width in bytes
	cols  []edgeCol
}

// col returns the statistics the edge carries for ref, or nil.
func (e *edge) col(ref query.ColumnRef) *ColStat {
	for i := range e.cols {
		if e.cols[i].ref == ref {
			return &e.cols[i].ColStat
		}
	}
	return nil
}

// mergeEdges combines two join inputs into the join output edge with the
// given result row count, carrying the needed columns. Each side's columns
// are scaled by the side's multiplication factor — the Bell et al.
// technique the paper leverages to carry a key's distribution through an
// earlier join on a different key. A column both sides have (a self-join)
// is the right side's.
func (w *walk) mergeEdges(left, right *edge, outRows float64, needs []need) edge {
	cols := w.colSlab.Cut(len(needs))[:0]
	for _, n := range needs {
		from, c := right, right.col(n.ref)
		if c == nil {
			from, c = left, left.col(n.ref)
		}
		if c == nil {
			continue
		}
		f := 1.0
		if from.rows > 0 {
			f = outRows / from.rows
		}
		nc := c.scaled(&w.arena, f, outRows, n.hist)
		// The shuffle reorders rows by the join key, destroying any
		// physical clustering the input columns had.
		nc.Clustered = false
		cols = append(cols, edgeCol{n.ref, nc})
	}
	return edge{rows: outRows, width: left.width + right.width, cols: cols}
}
