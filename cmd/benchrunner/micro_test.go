package main

import (
	"strings"
	"testing"
)

func TestParseBenchTextNames(t *testing.T) {
	const text = `goos: linux
pkg: saqp/internal/sketch
BenchmarkMicroSketchHash64-8   	100000000	         8.741 ns/op	       0 B/op	       0 allocs/op
BenchmarkMicroSketchHLLAdd     	200000000	         5.293 ns/op	       0 B/op	       0 allocs/op
BenchmarkMicroEngine/map-filter	     100	  11906219 ns/op	 8613656 B/op	   61539 allocs/op
BenchmarkMicroEngine/shuffle-join-16	      50	  35000505 ns/op	25847697 B/op	  236620 allocs/op
BenchmarkTrailingHyphen-	       1	         1.0 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	saqp/internal/sketch	1.062s
`
	got := parseBenchText(text)
	want := []microBench{
		{"BenchmarkMicroEngine/map-filter", 11906219, 8613656, 61539},
		{"BenchmarkMicroEngine/shuffle-join", 35000505, 25847697, 236620},
		{"BenchmarkMicroSketchHLLAdd", 5.293, 0, 0},
		{"BenchmarkMicroSketchHash64", 8.741, 0, 0},
		{"BenchmarkTrailingHyphen-", 1, 0, 0},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("benchmark %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestMicroGate(t *testing.T) {
	base := []microBench{
		{Name: "BenchmarkZero", AllocsPerOp: 0},
		{Name: "BenchmarkBig", AllocsPerOp: 1000},
	}
	run := func(zero, big int64) []microBench {
		return []microBench{
			{Name: "BenchmarkZero", AllocsPerOp: zero},
			{Name: "BenchmarkBig", AllocsPerOp: big},
			{Name: "BenchmarkNew", AllocsPerOp: 7}, // not in the baseline: ignored
		}
	}
	cases := []struct {
		name    string
		cur     []microBench
		wantErr string // "" = must pass
	}{
		{"equal", run(0, 1000), ""},
		{"fewer allocs", run(0, 10), ""},
		{"inside the 5% slack", run(0, 1050), ""},
		{"one past the slack", run(0, 1051), "BenchmarkBig: 1051 allocs/op, baseline 1000"},
		{"zero-alloc is strict", run(1, 1000), "BenchmarkZero: 1 allocs/op, baseline 0"},
		{"missing benchmark", run(0, 1000)[1:], "BenchmarkZero: present in baseline but not in this run"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := microGate(base, tc.cur)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("gate failed: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("gate passed, want failure containing %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("gate error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}
