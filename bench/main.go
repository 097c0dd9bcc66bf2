// Command bench is the repository's benchmark of record: four workloads
// (serve_hot, serve_cold, net_mixed, batch_tpch), nine end-to-end metrics
// and 66 per-layer metrics, every layer measured from outside by timing
// calls into its public functions. BENCHMARK.json at the repository root
// names the workloads, metrics, units and directions, and bounds the
// end-to-end metrics that repeat well enough to carry a bound; README.md
// beside this file explains the method (fixed-work rounds, timed in units
// of a reference pipeline run beside them).
//
//	go run ./bench -seed 3                         # all four workloads, end-to-end metrics
//	go run ./bench -seed 3 -trace 1                # per-layer metrics and span files
//	go run ./bench -workload serve_hot -seed 3 -seconds 22 -trace 0
//	go run ./bench -repeat 10                      # run-to-run spread against the bounds
//	go run ./bench -smoke                          # a few rounds per workload, every metric present
//
// A single-workload run prints every metric by name with its unit, writes
// bench-out/bench/{timed,layers,trace}_<workload>.json, and ends with one
// JSON line {correct, attempted, failed, metrics}. The exit code is
// non-zero when any op failed or any output check did not hold.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

const (
	// outDir receives every artefact; /bench-out/ is git-ignored.
	outDir = "bench-out/bench"
	// defaultSeconds matches run_seconds in BENCHMARK.json.
	defaultSeconds = 22
	// smokeRounds: one control round, three traced.
	smokeRounds = controlShare
)

func main() {
	if os.Getenv(refEnv) != "" {
		if err := serveReference(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench reference:", err)
			os.Exit(1)
		}
		return
	}
	var (
		workload = flag.String("workload", "", "workload to run (default: all four, each in a child process)")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long to measure: fixes the number of set-ups and timed rounds, in proportion")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		repeat   = flag.Int("repeat", 0, "run every workload K times (seeds seed … seed+K−1) and compare spreads with BENCHMARK.json's bounds")
		smoke    = flag.Bool("smoke", false, "a few traced rounds per workload; checks the run is correct and every named metric is reported")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch {
	case *smoke:
		err = runSmoke(os.Stdout, *seed)
	case *repeat > 0:
		err = runRepeat(*repeat, *seed, *seconds)
	case *workload == "":
		err = runAll(*seed, *seconds, *trace)
	default:
		err = runSingle(runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// summary is the last line of a single-workload run's stdout.
type summary struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]summaryMetric `json:"metrics"`
}

type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// reported returns the metric list a run in the given mode puts on its
// summary line: BENCHMARK.json's end_to_end or per_layer.
func reported(trace bool) []metricSpec {
	if trace {
		return perLayer
	}
	return endToEnd
}

// printed returns the metrics a run in the given mode prints by name: an
// untraced run all nine end-to-end figures, bounded or not.
func printed(trace bool) []metricSpec {
	if trace {
		return perLayer
	}
	return slices.Concat(endToEnd, unbounded)
}

// summarize picks the mode's metrics out of res; a layer the workload
// does not touch reports 0.
func summarize(res *result) summary {
	s := summary{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]summaryMetric)}
	for _, m := range reported(res.Trace) {
		s.Metrics[m.name] = summaryMetric{Value: res.Metrics[m.name].Value, Unit: m.unit}
	}
	return s
}

// execute runs one workload in this process.
func execute(cfg runConfig) (*result, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	cfg.why, cfg.began = w.why, time.Now()
	if cfg.rounds == 0 {
		cfg.setups, cfg.rounds = w.workFor(cfg.seconds)
	}
	return w.run(cfg)
}

// runSingle runs one workload, prints and writes its metrics, and fails
// when the run was not correct.
func runSingle(cfg runConfig) error {
	res, err := execute(cfg)
	if err != nil {
		return err
	}
	printResult(os.Stdout, res)
	if err := writeResult(res); err != nil {
		return err
	}
	line, err := json.Marshal(summarize(res))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		return fmt.Errorf("%s: failed=%d correct=%v: %s", res.Workload, res.Failed, res.Correct, strings.Join(res.Checks, "; "))
	}
	return nil
}

// printResult prints the mode's metrics by name with unit.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "%s seed=%d trace=%v rounds=%d gomaxprocs=%d ref=%.0fns-cpu/op steal=%.1f%% attempted=%d failed=%d correct=%v\n",
		res.Workload, res.Seed, res.Trace, res.Rounds, res.GOMAXPROCS, res.RefCPUPerOpNs, 100*res.StealShare,
		res.Attempted, res.Failed, res.Correct)
	for _, m := range printed(res.Trace) {
		v := res.Metrics[m.name]
		fmt.Fprintf(w, "  %-32s %16.6g %-6s", m.name, v.Value, m.unit)
		if v.N > 0 && v.Q3 != 0 {
			fmt.Fprintf(w, " [q1 %.6g, q3 %.6g, n %d]", v.Q1, v.Q3, v.N)
		}
		if v.Raw != 0 {
			fmt.Fprintf(w, " raw %.6g", v.Raw)
		}
		fmt.Fprintln(w)
	}
	for _, c := range res.Checks {
		fmt.Fprintln(w, "  CHECK FAILED:", c)
	}
}

// writeResult writes timed_<w>.json, or layers_<w>.json and
// trace_<w>.json on a traced run.
func writeResult(res *result) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	name := "timed_"
	if res.Trace {
		name = "layers_"
		if err := writeJSON("trace_"+res.Workload+".json", res.spans); err != nil {
			return err
		}
	}
	return writeJSON(name+res.Workload+".json", res)
}

func writeJSON(name string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name), b, 0o644)
}

func readJSON(name string, v any) error {
	b, err := os.ReadFile(filepath.Join(outDir, name))
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// child runs one workload in a child process of this same binary — so
// that peak_rss_mb and the heap belong to that workload alone — echoing
// its output and returning its summary line. A non-zero exit is an
// error.
func child(workload string, seed uint64, seconds float64, trace int) (summary, error) {
	self, err := os.Executable()
	if err != nil {
		return summary{}, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &out)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return summary{}, fmt.Errorf("%s: %w", workload, err)
	}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var s summary
	if err := json.Unmarshal([]byte(last), &s); err != nil {
		return summary{}, fmt.Errorf("%s: summary line: %w", workload, err)
	}
	return s, nil
}

// runAll runs the four workloads in order, one child process each.
func runAll(seed uint64, seconds float64, trace int) error {
	var firstErr error
	for _, w := range workloads {
		if _, err := child(w.name, seed, seconds, trace); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// runSmoke runs every workload for smokeRounds rounds, in this process,
// and fails unless each run is correct, every end-to-end metric is
// positive on every workload and every per-layer metric is measured by
// at least one workload. The runs are traced: a traced run computes both
// metric lists, and its control round takes the untraced path.
func runSmoke(w io.Writer, seed uint64) error {
	measured := make(map[string]bool)
	for _, wl := range workloads {
		res, err := execute(runConfig{workload: wl.name, seed: seed, rounds: smokeRounds, setups: 1, opsDiv: 4, trace: true})
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		printResult(w, res)
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("%s: failed=%d: %s", wl.name, res.Failed, strings.Join(res.Checks, "; "))
		}
		for _, m := range printed(false) {
			if v := res.Metrics[m.name].Value; !(v > 0) {
				return fmt.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.name, m.name, v)
			}
		}
		for _, m := range perLayer {
			if res.Metrics[m.name].Note != untouchedNote {
				measured[m.name] = true
			}
		}
	}
	for _, m := range perLayer {
		if !measured[m.name] {
			return fmt.Errorf("per-layer metric %s is measured by no workload", m.name)
		}
	}
	return nil
}
