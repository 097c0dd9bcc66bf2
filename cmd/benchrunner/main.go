// Command benchrunner regenerates every table and figure of the paper's
// evaluation (Section 5) from the reproduction's simulated substrate and
// prints them in the paper's row/series layout; the deterministic fault
// and online-learning replays are two more rows of the same table. It
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
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"text/tabwriter"
	"time"

	"saqp"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table2|table3|table4|table5|fig2|fig5|fig6|fig7|fig8|fault|learn|all")
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
				"Figures 2 and 5-8) and the deterministic fault and online-learning\n"+
				"replays from the simulated substrate.\n"+
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
	if err := run(*exp, *queries, *gap, *seed, *csvDir, *traceOut, *promOut, *benchDir); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}

// benchReport is one experiment's machine-readable result: wall time plus
// the metrics registry state after it ran. Counters accumulate across a
// multi-experiment invocation, so each report's metrics are cumulative up
// to and including its experiment.
type benchReport struct {
	Experiment  string                `json:"experiment"`
	Queries     int                   `json:"corpus_queries"`
	Seed        uint64                `json:"seed"`
	WallSeconds float64               `json:"wall_seconds"`
	Metrics     saqp.RegistrySnapshot `json:"metrics"`
}

// writeBench writes report as <dir>/BENCH_<name>.json; a no-op when dir
// is "".
func writeBench(dir, name string, report any) error {
	if dir == "" {
		return nil
	}
	return writeJSON(filepath.Join(dir, "BENCH_"+name+".json"), report)
}

// writeJSON writes v to path as indented JSON with a trailing newline.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeCSV writes rows (first row = header) to <dir>/<name>.csv; a no-op
// when dir is empty.
func writeCSV(dir, name string, rows [][]string) error {
	if dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}

// f2 formats a float for CSV.
func f2(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

func run(exp string, queries int, gap float64, seed uint64, csvDir, traceOut, promOut, benchDir string) error {
	cfg := saqp.DefaultExperimentConfig()
	cfg.CorpusQueries = queries
	cfg.Seed = seed

	var traceFile *os.File
	if traceOut != "" || promOut != "" || benchDir != "" {
		var sink *saqp.TraceSink
		if traceOut != "" {
			f, err := os.Create(traceOut)
			if err != nil {
				return err
			}
			traceFile = f
			sink = saqp.NewTraceSink(f)
		}
		cfg.Observer = saqp.NewObserver(sink)
	}

	needModels := map[string]bool{
		"table3": true, "table4": true, "table5": true,
		"fig2": true, "fig6": true, "fig7": true, "fig8": true, "all": true,
	}
	var art *saqp.TrainedArtifacts
	if needModels[exp] {
		fmt.Printf("Building corpus (%d queries) and training models...\n\n", queries)
		var err error
		art, err = saqp.BuildTrainedArtifacts(cfg)
		if err != nil {
			return err
		}
	}

	// Each row prints its table and writes its CSV. The replays return
	// their own BENCH report (recovery outcome, convergence curve); a nil
	// report gets the generic wall-time + metrics one.
	type runner struct {
		name string
		fn   func() (report any, err error)
	}
	runners := []runner{
		{"table2", func() (any, error) { return nil, table2(csvDir) }},
		{"fig5", func() (any, error) { return nil, fig5(csvDir) }},
		{"table3", func() (any, error) { return nil, table3(art, csvDir) }},
		{"fig6", func() (any, error) { return nil, fig6(art, csvDir) }},
		{"table4", func() (any, error) { return nil, table45(art, false, csvDir) }},
		{"table5", func() (any, error) { return nil, table45(art, true, csvDir) }},
		{"fig7", func() (any, error) { return nil, fig7(art, cfg, csvDir) }},
		{"fig2", func() (any, error) { return nil, fig2(art, cfg, csvDir) }},
		{"fig8", func() (any, error) { return nil, fig8(art, cfg, gap, csvDir) }},
		{"fault", func() (any, error) { return faultReplay(cfg, csvDir) }},
		{"learn", func() (any, error) { return learnReplay(cfg, csvDir) }},
	}
	ran := false
	for _, r := range runners {
		if exp == "all" || exp == r.name {
			begin := time.Now()
			report, err := r.fn()
			if err != nil {
				return fmt.Errorf("%s: %w", r.name, err)
			}
			if report == nil {
				generic := benchReport{Experiment: r.name, Queries: queries, Seed: seed,
					WallSeconds: time.Since(begin).Seconds()}
				if cfg.Observer != nil {
					generic.Metrics = cfg.Observer.Metrics.Snapshot()
				}
				report = generic
			}
			if err := writeBench(benchDir, r.name, report); err != nil {
				return fmt.Errorf("%s: %w", r.name, err)
			}
			ran = true
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	if err := cfg.Observer.Close(); err != nil {
		return err
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			return err
		}
		fmt.Printf("\nWrote trace to %s (open in ui.perfetto.dev)\n", traceOut)
	}
	if promOut != "" {
		f, err := os.Create(promOut)
		if err != nil {
			return err
		}
		if err := cfg.Observer.Metrics.WritePrometheus(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("Wrote metrics to %s\n", promOut)
	}
	return nil
}

func header(s string) {
	fmt.Printf("\n================ %s ================\n", s)
}

func table2(csvDir string) error {
	header("Table 2: Composition of Bing and Facebook Workloads")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Bin\tInput Size\tBing\tFacebook")
	rows := [][]string{{"bin", "input_size", "bing", "facebook"}}
	for _, r := range saqp.ReproduceTable2() {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\n", r.Bin, r.InputDesc, r.Bing, r.Facebook)
		rows = append(rows, []string{strconv.Itoa(r.Bin), r.InputDesc,
			strconv.Itoa(r.Bing), strconv.Itoa(r.Facebook)})
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return writeCSV(csvDir, "table2", rows)
}

func fig5(csvDir string) error {
	header("Fig 5 / Section 3.2: Selectivity Estimation for Modified TPC-H Q11 (SF 1)")
	rows, err := saqp.ReproduceFig5()
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Job\tType\tIS\tFS\tOutput Tuples")
	out := [][]string{{"job", "type", "is", "fs", "out_tuples"}}
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.4f\t%.4f\t%.0f\n", r.ID, r.Type, r.IS, r.FS, r.OutRows)
		out = append(out, []string{r.ID, r.Type, f2(r.IS), f2(r.FS), f2(r.OutRows)})
	}
	w.Flush()
	fmt.Println("(paper: nation predicate ≈96% relayed along the tree; groupby cardinality ≈200,000)")
	return writeCSV(csvDir, "fig5", out)
}

func table3(art *saqp.TrainedArtifacts, csvDir string) error {
	header("Table 3: Accuracy Statistics — Job Time Prediction (Eq. 8)")
	res := saqp.ReproduceTable3(art)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Types\tR-squared accuracy\tAvg Error\t(n)")
	for _, r := range res.TrainRows {
		fmt.Fprintf(w, "%s\t%.2f%%\t%.2f%%\t%d\n", r.Op, 100*r.RSquared, 100*r.AvgError, r.N)
	}
	fmt.Fprintf(w, "TestSet\tN/A\t%.2f%%\t%d\n", 100*res.TestSetAvgError, res.TestSetJobs)
	w.Flush()
	fmt.Println("(paper: Groupby 96.75%/8.63%, Join 92.71%/14.40%, Extract 84.64%/9.38%, TestSet 13.98%)")
	out := [][]string{{"types", "r_squared", "avg_error", "n"}}
	for _, r := range res.TrainRows {
		out = append(out, []string{r.Op, f2(r.RSquared), f2(r.AvgError), strconv.Itoa(r.N)})
	}
	out = append(out, []string{"TestSet", "", f2(res.TestSetAvgError), strconv.Itoa(res.TestSetJobs)})
	return writeCSV(csvDir, "table3", out)
}

func table45(art *saqp.TrainedArtifacts, reduce bool, csvDir string) error {
	name, paper, csvName := "Table 4: Map Task Time Prediction (training set)",
		"(paper: Join 85.6%/16.27%, Groupby 92.4%/24.8%, Extract 92.74%/14.5%, Together 87.05%/20.5%)",
		"table4"
	rows := saqp.ReproduceTable4(art)
	if reduce {
		name = "Table 5: Reduce Task Time Prediction (training set)"
		paper = "(paper: Join 85.83%/14.23%, Groupby 98.82%/4.67%, Extract 90.03%/6.18%, Together 90.68%/7.4%)"
		csvName = "table5"
		rows = saqp.ReproduceTable5(art)
	}
	header(name)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Types\tR-squared accuracy\tAvg Error\t(n)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.2f%%\t%.2f%%\t%d\n", r.Op, 100*r.RSquared, 100*r.AvgError, r.N)
	}
	w.Flush()
	fmt.Println(paper)
	out := [][]string{{"types", "r_squared", "avg_error", "n"}}
	for _, r := range rows {
		out = append(out, []string{r.Op, f2(r.RSquared), f2(r.AvgError), strconv.Itoa(r.N)})
	}
	return writeCSV(csvDir, csvName, out)
}

func fig6(art *saqp.TrainedArtifacts, csvDir string) error {
	header("Fig 6: Accuracy of Job Execution Prediction (test set scatter)")
	pts := saqp.ReproduceFig6(art)
	sort.Slice(pts, func(i, j int) bool { return pts[i].Actual < pts[j].Actual })
	// Render the scatter as binned actual→predicted quantiles.
	fmt.Println("actual(s)  predicted(s)  operator   (every 8th point; perfect prediction = equal columns)")
	out := [][]string{{"actual_sec", "predicted_sec", "operator"}}
	for i, p := range pts {
		if i%8 == 0 {
			fmt.Printf("%9.1f  %12.1f  %s\n", p.Actual, p.Predicted, p.Operator)
		}
		out = append(out, []string{f2(p.Actual), f2(p.Predicted), p.Operator})
	}
	return writeCSV(csvDir, "fig6", out)
}

func fig7(art *saqp.TrainedArtifacts, cfg saqp.ExperimentConfig, csvDir string) error {
	header("Fig 7: Accuracy of Query Response Time Prediction (100 GB queries)")
	res, err := saqp.ReproduceFig7(art, cfg, 15)
	if err != nil {
		return err
	}
	fmt.Println("actual(s)  predicted(s)")
	out := [][]string{{"actual_sec", "predicted_sec"}}
	for _, p := range res.Points {
		fmt.Printf("%9.1f  %12.1f\n", p.Actual, p.Predicted)
		out = append(out, []string{f2(p.Actual), f2(p.Predicted)})
	}
	fmt.Printf("average prediction error: %.2f%% (paper: 8.3%%)\n", 100*res.AvgError)
	return writeCSV(csvDir, "fig7", out)
}

func fig2(art *saqp.TrainedArtifacts, cfg saqp.ExperimentConfig, csvDir string) error {
	header("Fig 1-2: Motivation — QA(10GB), QB(100GB), QC(10GB) under HCS vs SWRD")
	out := [][]string{{"scheduler", "query", "response_sec", "alone_sec", "slowdown"}}
	for _, sch := range []string{saqp.SchedulerHCS, saqp.SchedulerSWRD} {
		res, err := saqp.ReproduceFig2(sch, art, cfg)
		if err != nil {
			return err
		}
		for _, q := range res.Queries {
			out = append(out, []string{sch, q.Name, f2(q.Response), f2(q.Alone), f2(q.Slowdown)})
		}
		fmt.Printf("\n%s:\n", sch)
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "  query\tresponse(s)\talone(s)\tslowdown\tjob spans (start-end s)")
		for _, q := range res.Queries {
			spans := ""
			for i, sp := range q.JobSpans {
				if i > 0 {
					spans += "  "
				}
				spans += fmt.Sprintf("%s[%.0f-%.0f]", q.JobLabels[i], sp[0], sp[1])
			}
			fmt.Fprintf(w, "  %s\t%.1f\t%.1f\t%.2fx\t%s\n", q.Name, q.Response, q.Alone, q.Slowdown, spans)
		}
		w.Flush()
	}
	fmt.Println("\n(paper: HCS delays the small queries ~3x through resource thrashing)")
	return writeCSV(csvDir, "fig2", out)
}

func fig8(art *saqp.TrainedArtifacts, cfg saqp.ExperimentConfig, gap float64, csvDir string) error {
	header("Fig 8: Average Query Response Times — Bing & Facebook Workloads")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "workload\tscheduler\tavg(s)\tp50(s)\tp95(s)\tbin1\tbin2\tbin3\tbin4\tbin5\tmakespan(s)")
	out := [][]string{{"workload", "scheduler", "avg_sec", "p50_sec", "p95_sec",
		"bin1", "bin2", "bin3", "bin4", "bin5", "makespan_sec"}}
	for _, mix := range []string{"bing", "facebook"} {
		rs, err := saqp.ReproduceFig8(mix, art, cfg, gap)
		if err != nil {
			return err
		}
		m := map[string]float64{}
		for _, r := range rs {
			m[r.Scheduler] = r.AvgResponseSec
			fmt.Fprintf(w, "%s\t%s\t%.1f\t%.1f\t%.1f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.1f\n",
				r.Workload, r.Scheduler, r.AvgResponseSec, r.P50Sec, r.P95Sec,
				r.AvgByBin[1], r.AvgByBin[2], r.AvgByBin[3], r.AvgByBin[4], r.AvgByBin[5],
				r.Makespan)
			out = append(out, []string{r.Workload, r.Scheduler, f2(r.AvgResponseSec),
				f2(r.P50Sec), f2(r.P95Sec), f2(r.AvgByBin[1]), f2(r.AvgByBin[2]),
				f2(r.AvgByBin[3]), f2(r.AvgByBin[4]), f2(r.AvgByBin[5]), f2(r.Makespan)})
		}
		fmt.Fprintf(w, "%s\tSWRD gain\tvs HFS %.1f%%, vs HCS %.1f%%\t\t\t\t\t\t\t\t\n",
			mix, 100*(1-m["SWRD"]/m["HFS"]), 100*(1-m["SWRD"]/m["HCS"]))
	}
	w.Flush()
	fmt.Println("(paper: SWRD vs HFS -40.2%/-43.9%; vs HCS -72.8%/-27.4%)")
	return writeCSV(csvDir, "fig8", out)
}
