package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the bench binary as the
// reference's child process.
func TestMain(m *testing.M) {
	if os.Getenv(refEnv) != "" {
		if err := serveReference(os.Stdin, os.Stdout); err != nil {
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) from CPython.
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := iqrSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("iqrSpread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := fullSpread([]float64{9, 10, 11}); !near(got, 0.2) {
		t.Errorf("fullSpread = %v, want 0.2", got)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
	ns := make([]int64, 100)
	for i := range ns {
		ns[i] = int64(i + 1)
	}
	if v, beyond := percentileNs(ns, 0.99); v != 99 || beyond != 1 {
		t.Errorf("p99 of 1..100 = %d with %d beyond, want 99 with 1", v, beyond)
	}
	if v, beyond := percentileNs(ns[:10], 0.5); v != 5 || beyond != 5 {
		t.Errorf("p50 of 1..10 = %d with %d beyond, want 5 with 5", v, beyond)
	}
	if got := medianNs(ns); got != 50.5 {
		t.Errorf("medianNs = %v", got)
	}
}

// refOf builds a reference run with the given CPU time per op.
func refOf(cpuPerOpNs float64) refTimes {
	return refTimes{Loaded: window{CPUNs: int64(cpuPerOpNs * refLoadedOps * clients)}}
}

func TestCalibrationWindowAndScale(t *testing.T) {
	var refs []refTimes
	for _, v := range []float64{10, 20, 30, 40, 50, 60, 70, 80, 90} {
		refs = append(refs, refOf(v))
	}
	for _, c := range []struct {
		i    int
		want float64
	}{
		{0, 25}, // rounds 0…3
		{1, 30}, // rounds 0…4
		{4, 50}, // rounds 1…7
		{8, 75}, // rounds 5…8
	} {
		if got := windowCalib(refs, c.i); got != c.want {
			t.Errorf("windowCalib(_, %d) = %v, want %v", c.i, got, c.want)
		}
	}
	if got := calibScale(refNominalNs / 2); got != 2 {
		t.Errorf("a reference twice as fast as nominal must double durations, got scale %v", got)
	}

	// Identical work in every round; from round 4 on the machine is twice
	// as slow (reference and round both take double). Calibrated figures
	// agree across the change, raw ones do not.
	fast := roundRaw{Loaded: window{Ns: 1e9, CPUNs: 2e9}, LoadedOps: 1000, P50Ns: 1e3, TailNs: 1e4}
	slow := roundRaw{Loaded: window{Ns: 2e9, CPUNs: 4e9}, LoadedOps: 1000, P50Ns: 2e3, TailNs: 2e4}
	half, nominal := refOf(refNominalNs/2), refOf(refNominalNs)
	rs := &roundSet{
		rounds: []roundRaw{fast, fast, fast, fast, slow, slow, slow},
		refs:   []refTimes{half, half, half, half, nominal, nominal, nominal, nominal},
	}
	all := func(roundRaw) bool { return true }
	thr := rs.perRound(false, all, opsPerSec)
	if !near(thr[0], 500) || !near(thr[6], 500) {
		t.Errorf("calibrated throughput = %v, want 500 ops/s at both ends", thr)
	}
	raw := rs.perRound(true, all, opsPerSec)
	if !near(raw[0], 1000) || !near(raw[6], 500) {
		t.Errorf("raw throughput = %v, want 1000 then 500", raw)
	}
	if m := rs.timing("", all, p50Micros); !near(m.Value, 2) || m.N != 7 || !near(m.Raw, 1) {
		t.Errorf("calibrated p50 = %+v, want 2 us (raw median 1) over 7 rounds", m)
	}
	if m := rs.timing("", all, cpuMicros); !near(m.Value, 4000) || !near(m.Raw, 2000) {
		t.Errorf("calibrated cpu per op = %+v, want 4000 us (raw median 2000)", m)
	}
}

// TestReferenceRuns checks the reference completes and reports a positive
// figure, in this process and through the child process.
func TestReferenceRuns(t *testing.T) {
	ref := newReference()
	got := ref.run()
	ref.close()
	if !(got.cpuPerOpNs() > 0 && got.Loaded.Ns > 0) {
		t.Errorf("reference run %+v", got)
	}

	// The same through the child process, twice, then a clean exit.
	p, err := startReference()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := p.run()
		if err != nil || !(got.cpuPerOpNs() > 0) {
			t.Fatalf("child reference run %d: %+v, %v", i, got, err)
		}
	}
	if err := p.close(); err != nil {
		t.Errorf("closing the reference process: %v", err)
	}
}

func TestSelfTimeFromNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, StartNs: 20, EndNs: 50},  // overlaps span 2
		{ID: 4, Parent: 1, StartNs: 90, EndNs: 120}, // runs past its parent
		{ID: 5, Parent: 2, StartNs: 12, EndNs: 18},  // grandchild: not span 1's
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 50, 2: 14, 3: 30, 4: 30, 5: 6} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestRecorderCapsAndNumbers(t *testing.T) {
	epoch := time.Now()
	r := newRecorder(epoch, 100, 2)
	root := r.reserve()
	child := r.add(span{Name: "child", Parent: root}, epoch.Add(time.Microsecond), epoch.Add(3*time.Microsecond))
	r.add(span{ID: root, Name: "root"}, epoch, epoch.Add(5*time.Microsecond))
	r.add(span{Name: "dropped"}, epoch, epoch)
	if root != 101 || child != 102 || len(r.spans) != 2 || !r.full() {
		t.Fatalf("root=%d child=%d spans=%d full=%v", root, child, len(r.spans), r.full())
	}
	if s := r.spans[0]; s.StartNs != 1000 || s.EndNs != 3000 || s.Parent != root {
		t.Errorf("child span = %+v", s)
	}
}

func TestOpSequenceDeterminism(t *testing.T) {
	a, err := generatedTexts(7, 48)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generatedTexts(7, 48)
	c, _ := generatedTexts(8, 48)
	if !slices.Equal(a, b) {
		t.Error("same seed gave different texts")
	}
	if slices.Equal(a, c) {
		t.Error("different seeds gave identical texts")
	}
	seen := make(map[string]bool)
	for _, s := range a {
		if seen[s] {
			t.Errorf("duplicate text %q", s)
		}
		seen[s] = true
	}
	if !slices.Equal(zipfSeq(7, 4096, 500), zipfSeq(7, 4096, 500)) {
		t.Error("same seed gave a different Zipf order")
	}
	if slices.Equal(zipfSeq(7, 4096, 500), zipfSeq(8, 4096, 500)) {
		t.Error("different seeds gave the same Zipf order")
	}
	hot, err := tpchOps(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := tpchOps(7, 0)
	other, _ := tpchOps(8, 0)
	if len(hot.texts) != len(tpchNames) || len(hot.seeds) != len(tpchNames)*hotSeedsPerText {
		t.Errorf("serve_hot has %d texts and %d seeds", len(hot.texts), len(hot.seeds))
	}
	// The (text, seed) pairs are the same for every run seed; the run seed
	// decides where each text's walk over its seeds starts.
	if !slices.Equal(hot.seeds, other.seeds) {
		t.Error("the simulation seeds must not depend on the run seed")
	}
	if hot.at(0) != again.at(0) || hot.at(0) == other.at(0) {
		t.Errorf("op 0 draws pair %d, again %d, with another seed %d", hot.at(0), again.at(0), other.at(0))
	}
	// Op k draws text k mod 7 with seed number (k/7 + k mod 7 + rot) mod
	// 4096 of that text: consecutive draws of a text take consecutive
	// seeds, so the walk visits them all.
	hot.rot = 0
	for _, c := range []struct{ k, text, seed int }{
		{0, 0, 0}, {6, 6, 6}, {7, 0, 1}, {7*hotSeedsPerText + 3, 3, 3}, {7*(hotSeedsPerText-1) + 2, 2, 1},
	} {
		if pair := hot.at(c.k); pair != c.text*hotSeedsPerText+c.seed || hot.sql(pair) != hot.texts[c.text] {
			t.Errorf("serve_hot op %d = pair %d, want text %d seed %d", c.k, pair, c.text, c.seed)
		}
	}

	// The pool is the same for every run seed; the order and the
	// simulation seeds are the run seed's.
	cold, err := coldOps(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	coldAgain, _ := coldOps(7, 0)
	coldOther, _ := coldOps(8, 0)
	if !slices.Equal(cold.texts, coldOther.texts) {
		t.Error("the text pool must not depend on the run seed")
	}
	if !slices.Equal(cold.seq, coldAgain.seq) || cold.rot != coldAgain.rot {
		t.Error("same seed gave a different serve_cold order")
	}
	if slices.Equal(cold.seq, coldOther.seq) || cold.rot == coldOther.rot {
		t.Error("different seeds gave the same serve_cold order")
	}
	visited := make(map[int32]bool)
	for _, t := range cold.seq {
		visited[t] = true
	}
	if len(cold.seq) != coldTexts || len(visited) != coldTexts {
		t.Errorf("serve_cold's cycle visits %d of %d texts in %d ops", len(visited), coldTexts, len(cold.seq))
	}
}

// TestSmoke runs every workload for a few rounds, traced (whose control
// rounds also take the untraced path), and requires a correct run that
// reports every end-to-end and per-layer metric with its declared unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	if err := runSmoke(io.Discard, 1); err != nil {
		t.Fatal(err)
	}
}

// TestBenchmarkJSONAgrees keeps BENCHMARK.json and the tables in spec.go
// in step.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct{ Name, Unit, Better string }
	var bf struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(bf.Command, []string{"go", "run", "./bench"}) || !slices.Equal(bf.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", bf.Command, bf.Paths)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v vs %s / %s", i, bf.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got []jm, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i] != (jm{m.name, m.unit, m.better}) {
				t.Errorf("%s %d: %+v vs %+v", kind, i, got[i], m)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	if n := len(perLayer) - len(unbounded); n != 66 {
		t.Errorf("%d per-layer metrics besides the unbounded end-to-end ones, the issue names 66", n)
	}
	if len(endToEnd)+len(unbounded) != 9 {
		t.Errorf("%d end-to-end metrics, the issue names 9", len(endToEnd)+len(unbounded))
	}
}

func TestWorkScalesWithSeconds(t *testing.T) {
	w := workloadSpec{setups: 40, rounds: 36}
	for _, c := range []struct {
		seconds        float64
		setups, rounds int
	}{
		{defaultSeconds, 40, 36},
		{defaultSeconds / 2, 20, 18},
		{1, minSetups, countRounds}, // never fewer than the counts need
	} {
		if s, r := w.workFor(c.seconds); s != c.setups || r != c.rounds {
			t.Errorf("workFor(%v) = %d set-ups, %d rounds, want %d, %d", c.seconds, s, r, c.setups, c.rounds)
		}
	}
}

func TestControlAndCountedRounds(t *testing.T) {
	for _, c := range []struct {
		trace                    bool
		rounds, control, counted int
	}{
		{false, 40, 40, countRounds},
		{false, countRounds, countRounds, countRounds},
		{true, 40, 10, 10}, // the counts stop where tracing starts
		{true, 18, 5, 5},
		{true, smokeRounds, 1, 1},
	} {
		cfg := runConfig{trace: c.trace, rounds: c.rounds}
		if cfg.controlRounds() != c.control || cfg.countedRounds() != c.counted {
			t.Errorf("trace=%v rounds=%d: %d control, %d counted rounds, want %d, %d",
				c.trace, c.rounds, cfg.controlRounds(), cfg.countedRounds(), c.control, c.counted)
		}
	}
}
