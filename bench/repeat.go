package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatRow is one (workload, metric) line of the self-check.
type repeatRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	// Spread is (max − min) ÷ median, the figure judged against Bound; an
	// end-to-end metric BENCHMARK.json does not bound has Bound 0 and is
	// reported, not judged.
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
	Within bool    `json:"within"`
}

// runRepeat runs every workload k times untraced with the same seed, in
// alternating workload order, and compares each bounded end-to-end
// metric's max−min spread with its bound. It writes repeat.json and fails
// if any metric is outside its bound.
func runRepeat(k int, seed uint64, seconds float64) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-repeat reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := make(map[string]float64)
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}

	values := make(map[string]map[string][]float64) // workload → metric → one value per run
	for i := 0; i < k; i++ {
		order := slices.Clone(workloads)
		if i%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			if _, err := child(w.name, seed, seconds, 0); err != nil {
				return err
			}
			// The summary line has the bounded metrics only; the result
			// file has all nine.
			var res result
			if err := readJSON("timed_"+w.name+".json", &res); err != nil {
				return err
			}
			if values[w.name] == nil {
				values[w.name] = make(map[string][]float64)
			}
			for _, m := range printed(false) {
				values[w.name][m.name] = append(values[w.name][m.name], res.Metrics[m.name].Value)
			}
		}
	}

	var rows []repeatRow
	outside := 0
	fmt.Printf("\n%-11s %-18s %14s %9s %7s  values\n", "workload", "metric", "median", "max-min", "bound")
	for _, w := range workloads {
		for _, m := range printed(false) {
			v := values[w.name][m.name]
			row := repeatRow{Workload: w.name, Metric: m.name, Unit: m.unit, Values: v, Median: median(v),
				Spread: fullSpread(v), Bound: bounds[m.name]}
			bound, bounded := bounds[m.name]
			row.Within = !bounded || row.Spread <= bound
			mark, limit := "", "none"
			if bounded {
				limit = fmt.Sprintf("%.0f%%", 100*bound)
			}
			if !row.Within {
				outside++
				mark = "  OUTSIDE"
			}
			fmt.Printf("%-11s %-18s %14.6g %8.2f%% %7s  %.6g%s\n", w.name, m.name, row.Median,
				100*row.Spread, limit, v, mark)
			rows = append(rows, row)
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := writeJSON("repeat.json", rows); err != nil {
		return err
	}
	if outside > 0 {
		return fmt.Errorf("%d metric(s) spread beyond their bound over %d runs", outside, k)
	}
	return nil
}
