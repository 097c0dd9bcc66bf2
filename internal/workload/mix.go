package workload

import (
	"fmt"

	"saqp/internal/query"
	"saqp/internal/sim"
)

// BinSpec is one row of the paper's Table 2: queries whose total input size
// falls in [MinGB, MaxGB] gigabytes, and how many of them the mix contains.
type BinSpec struct {
	Bin          int
	MinGB, MaxGB float64
	Count        int
}

// BingComposition returns Table 2's Bing production mix (100 queries).
func BingComposition() []BinSpec {
	return []BinSpec{
		{Bin: 1, MinGB: 1, MaxGB: 10, Count: 44},
		{Bin: 2, MinGB: 20, MaxGB: 20, Count: 8},
		{Bin: 3, MinGB: 50, MaxGB: 50, Count: 24},
		{Bin: 4, MinGB: 100, MaxGB: 100, Count: 22},
		{Bin: 5, MinGB: 150, MaxGB: 400, Count: 2},
	}
}

// FacebookComposition returns Table 2's Facebook production mix
// (100 queries, dominated by small inputs).
func FacebookComposition() []BinSpec {
	return []BinSpec{
		{Bin: 1, MinGB: 1, MaxGB: 10, Count: 85},
		{Bin: 2, MinGB: 20, MaxGB: 20, Count: 4},
		{Bin: 3, MinGB: 50, MaxGB: 50, Count: 8},
		{Bin: 4, MinGB: 100, MaxGB: 100, Count: 2},
		{Bin: 5, MinGB: 150, MaxGB: 400, Count: 1},
	}
}

// Composition returns the Table 2 mix named "bing" or "facebook".
func Composition(name string) ([]BinSpec, error) {
	switch name {
	case "bing":
		return BingComposition(), nil
	case "facebook":
		return FacebookComposition(), nil
	}
	return nil, fmt.Errorf("workload: unknown mix %q (want bing or facebook)", name)
}

// WorkItem is one query of a workload with its scale and arrival offset.
type WorkItem struct {
	Query      *query.Query
	Shape      Shape
	SF         float64
	Bin        int
	ArrivalSec float64
}

// Workload is a set of queries with Poisson arrivals (paper Section 5.1:
// "queries are submitted into the system following a random Poisson
// distribution").
type Workload struct {
	Name  string
	Items []WorkItem
}

// BuildWorkload instantiates a composition: for each bin entry a random
// query is drawn and its scale factor chosen so the total input size lands
// in the bin; arrivals follow a Poisson process with the given mean
// inter-arrival gap. Items are returned in arrival order.
func BuildWorkload(name string, comp []BinSpec, meanGapSec float64, seed uint64) (*Workload, error) {
	if meanGapSec <= 0 {
		return nil, fmt.Errorf("workload: meanGapSec must be positive")
	}
	gen := NewGenerator(seed)
	arr := sim.New(seed ^ 0xabcdef)
	w := &Workload{Name: name}
	var t float64
	for _, bin := range comp {
		for i := 0; i < bin.Count; i++ {
			q, shape, err := gen.RandomQuery()
			if err != nil {
				return nil, err
			}
			gb := bin.MinGB
			if bin.MaxGB > bin.MinGB {
				gb = arr.Range(bin.MinGB, bin.MaxGB)
			}
			sf := SFForTargetBytes(q, gb*1e9)
			w.Items = append(w.Items, WorkItem{Query: q, Shape: shape, SF: sf, Bin: bin.Bin})
		}
	}
	// Shuffle bins together, then assign Poisson arrivals.
	arr.Shuffle(len(w.Items), func(i, j int) { w.Items[i], w.Items[j] = w.Items[j], w.Items[i] })
	for i := range w.Items {
		w.Items[i].ArrivalSec = t
		t += arr.Exponential(1 / meanGapSec)
	}
	return w, nil
}
