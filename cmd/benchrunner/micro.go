package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// microBench is one parsed benchmark line.
type microBench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// microReport is BENCH_micro.json: per-op costs parsed from one
// `go test -bench -benchmem` run. ns/op is recorded for benchstat-style
// reading and never gated — it does not transfer between machines.
type microReport struct {
	Experiment string       `json:"experiment"`
	Benchmarks []microBench `json:"benchmarks"`
}

// parseBenchText extracts Benchmark* result lines from `go test -bench
// -benchmem` output: name, iteration count, then value/unit pairs.
func parseBenchText(data string) []microBench {
	var out []microBench
	for _, line := range strings.Split(data, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		b := microBench{Name: stripProcs(fields[0])}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = int64(v)
			case "allocs/op":
				b.AllocsPerOp = int64(v)
			}
		}
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// stripProcs drops the -<GOMAXPROCS> suffix `go test` appends to a
// benchmark name, so baselines survive core-count changes between
// machines. At GOMAXPROCS=1 there is no suffix, so only a trailing
// -<digits> goes: a hyphen inside the name ("Sub/two-part") stays.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 || i == len(name)-1 || strings.Trim(name[i+1:], "0123456789") != "" {
		return name
	}
	return name[:i]
}

// microGate compares this run against the baseline: every baseline
// benchmark must still exist and allocs/op may not regress.
func microGate(base, cur []microBench) error {
	byName := make(map[string]microBench, len(cur))
	for _, b := range cur {
		byName[b.Name] = b
	}
	var failures []string
	for _, bb := range base {
		b, ok := byName[bb.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: present in baseline but not in this run", bb.Name))
			continue
		}
		// 5% relative slack absorbs per-iteration amortization noise
		// while keeping zero-alloc benchmarks strict: 0 + 0/20 = 0.
		if b.AllocsPerOp > bb.AllocsPerOp+bb.AllocsPerOp/20 {
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op, baseline %d (allocation regression)",
				b.Name, b.AllocsPerOp, bb.AllocsPerOp))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("baseline gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// runMicroBench parses the benchmark text at input, writes
// BENCH_micro.json into benchDir, and either gates the run against the
// committed baseline or, with rebase, rewrites that baseline from it.
func runMicroBench(input, baseline string, rebase bool, benchDir string) error {
	data, err := os.ReadFile(input)
	if err != nil {
		return fmt.Errorf("reading bench output: %w", err)
	}
	r := microReport{Experiment: "micro", Benchmarks: parseBenchText(string(data))}
	if len(r.Benchmarks) == 0 {
		return fmt.Errorf("no Benchmark lines found in %s", input)
	}
	fmt.Printf("micro: %d benchmarks\n", len(r.Benchmarks))
	if err := writeBench(benchDir, r.Experiment, r); err != nil {
		return err
	}
	switch {
	case rebase:
		if baseline == "" {
			return fmt.Errorf("-micro-rebase needs -micro-baseline")
		}
		if err := writeJSON(baseline, r); err != nil {
			return err
		}
		fmt.Printf("micro: baseline rebased to %s\n", baseline)
	case baseline != "":
		data, err := os.ReadFile(baseline)
		if err != nil {
			return fmt.Errorf("reading baseline: %w", err)
		}
		var base microReport
		if err := json.Unmarshal(data, &base); err != nil {
			return fmt.Errorf("parsing baseline: %w", err)
		}
		if err := microGate(base.Benchmarks, r.Benchmarks); err != nil {
			return err
		}
		fmt.Printf("micro: baseline gate passed (%s)\n", baseline)
	}
	return nil
}
