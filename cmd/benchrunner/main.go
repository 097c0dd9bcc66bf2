// Command benchrunner regenerates every table and figure of the paper's
// evaluation (Section 5) from the reproduction's simulated substrate and
// prints them in the paper's row/series layout; the deterministic fault
// and online-learning replays and the ablations of the design choices are
// three more rows of the same table. It
// times nothing (go run ./bench does) and judges nothing (go test does);
// see docs/MEASURING.md.
//
// Usage:
//
//	benchrunner -exp all
//	benchrunner -exp table3 -queries 1000
//	benchrunner -exp fig8 -gap 12
//	benchrunner -exp learn -queries 120 -bench-out bench-out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"saqp"
	"saqp/internal/repro"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: "+expNames())
		queries  = flag.Int("queries", 240, "corpus size (paper: 1000); also the learn replay's stream length")
		gap      = flag.Float64("gap", 12, "mean Poisson inter-arrival gap in seconds for fig8")
		seed     = flag.Uint64("seed", 2018, "experiment seed")
		csvDir   = flag.String("csv", "", "also write each experiment's data as CSV into this directory")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON of the simulated runs (fig2/fig8/fault) to this file")
		promOut  = flag.String("metrics", "", "write Prometheus text-format metrics to this file")
		benchDir = flag.String("bench-out", "", "write machine-readable BENCH_<exp>.json results into this directory")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"benchrunner regenerates the paper's evaluation artifacts (Tables 2-5,\n"+
				"Figures 2 and 5-8), the deterministic fault and online-learning\n"+
				"replays and the design-choice ablations from the simulated substrate.\n"+
				"Timed measurement lives in `go run ./bench` (docs/MEASURING.md).\n\n"+
				"usage: benchrunner [flags]\n\n"+
				"examples:\n"+
				"  benchrunner -exp all\n"+
				"  benchrunner -exp table3 -queries 1000\n"+
				"  benchrunner -exp learn -queries 120 -bench-out bench-out\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	for _, dir := range []string{*csvDir, *benchDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
	}
	if err := run(os.Stdout, *exp, *queries, *gap, *seed, *csvDir, *traceOut, *promOut, *benchDir); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}

// report is the body of a row's BENCH_<row>.json; the runner stamps the
// row's wall time on it before writing.
type report interface{ stop(begin time.Time) }

// wall is the one non-deterministic field of every report. Each report
// embeds it where its file has always carried wall_seconds.
type wall struct {
	Seconds float64 `json:"wall_seconds"`
}

func (w *wall) stop(begin time.Time) { w.Seconds = time.Since(begin).Seconds() }

// benchReport is the report of a row that brings none of its own: wall
// time plus the metrics registry state after it ran. Counters accumulate
// across a multi-row invocation, so each report's metrics are cumulative
// up to and including its row.
type benchReport struct {
	Experiment string `json:"experiment"`
	Queries    int    `json:"corpus_queries"`
	Seed       uint64 `json:"seed"`
	wall
	Metrics saqp.RegistrySnapshot `json:"metrics"`
}

// run executes the selected rows. -exp is checked against the row table
// before anything is created, and the observer's files are finished —
// the trace a terminated JSON array — whether or not a row failed.
func run(out io.Writer, exp string, queries int, gap float64, seed uint64, csvDir, traceOut, promOut, benchDir string) error {
	var todo []row
	for _, r := range rows {
		if exp == "all" || exp == r.name {
			todo = append(todo, r)
		}
	}
	if len(todo) == 0 {
		return fmt.Errorf("unknown experiment %q (want %s)", exp, expNames())
	}
	e := &env{cfg: repro.DefaultExperimentConfig(), gap: gap}
	e.cfg.CorpusQueries = queries
	e.cfg.Seed = seed
	finish := func() error { return nil }
	if traceOut != "" || promOut != "" || benchDir != "" {
		var err error
		if e.cfg.Observer, finish, err = saqp.OpenObserver(traceOut, promOut); err != nil {
			return err
		}
	}
	err := runRows(out, todo, e, csvDir, benchDir)
	if ferr := finish(); err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	if traceOut != "" {
		fmt.Fprintf(out, "\nWrote trace to %s (open in ui.perfetto.dev)\n", traceOut)
	}
	if promOut != "" {
		fmt.Fprintf(out, "Wrote metrics to %s\n", promOut)
	}
	return nil
}

// runRows runs each row — training the shared models before the first one
// that needs them — printing its table and writing its CSV and report.
func runRows(out io.Writer, todo []row, e *env, csvDir, benchDir string) error {
	for _, r := range todo {
		if r.models && e.art == nil {
			fmt.Fprintf(out, "Building corpus (%d queries) and training models...\n", e.cfg.CorpusQueries)
			var err error
			if e.art, err = repro.BuildTrainedArtifacts(e.cfg); err != nil {
				return err
			}
		}
		begin := time.Now()
		t, rep, err := r.run(e)
		if err == nil {
			err = t.print(out)
		}
		if err == nil && csvDir != "" {
			err = t.writeCSV(filepath.Join(csvDir, r.name+".csv"))
		}
		if err == nil && benchDir != "" {
			if rep == nil {
				rep = &benchReport{Experiment: r.name, Queries: e.cfg.CorpusQueries, Seed: e.cfg.Seed,
					Metrics: e.cfg.Observer.Metrics.Snapshot()}
			}
			rep.stop(begin)
			err = writeJSON(filepath.Join(benchDir, "BENCH_"+r.name+".json"), rep)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
	}
	return nil
}

// writeJSON writes v to path as indented JSON with a trailing newline.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
