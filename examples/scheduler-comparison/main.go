// Scheduler comparison: reproduce the paper's Figure 8. The Bing and
// Facebook production workload mixes (Table 2) are replayed with Poisson
// arrivals against the simulated 9-node cluster under three schedulers:
// the Hadoop Capacity Scheduler (HCS), the Hadoop Fair Scheduler (HFS),
// and the paper's semantics-aware Smallest-WRD-first scheduler (SWRD).
//
// The runs are observed: the summary ends with the live prediction-drift
// snapshot accumulated while the workloads executed. For the same runs as
// a Perfetto trace and a Prometheus dump, use the fig8 row of the
// experiment table: benchrunner -exp fig8 -trace out.json -metrics out.prom.
//
//	go run ./examples/scheduler-comparison [-gap 12] [-queries 200]
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"saqp"
)

func main() {
	gap := flag.Float64("gap", 12, "mean Poisson inter-arrival gap (seconds)")
	queries := flag.Int("queries", 200, "training corpus size")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"scheduler-comparison reproduces the paper's Figure 8: the Bing and\n"+
				"Facebook workload mixes (Table 2) replayed with Poisson arrivals under\n"+
				"HCS, HFS and SWRD on the simulated 9-node cluster. For a trace and\n"+
				"metrics of the same runs: benchrunner -exp fig8 -trace out.json -metrics out.prom\n\n"+
				"usage: go run ./examples/scheduler-comparison [flags]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	o := saqp.NewObserver(nil)

	cfg := saqp.DefaultExperimentConfig()
	cfg.CorpusQueries = *queries
	cfg.Observer = o
	fmt.Printf("Training prediction models on %d synthetic queries...\n", *queries)
	art, err := saqp.BuildTrainedArtifacts(cfg)
	if err != nil {
		log.Fatal(err)
	}

	for _, mix := range []string{"bing", "facebook"} {
		rs, err := saqp.ReproduceFig8(mix, art, cfg, *gap)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n=== %s workload (100 queries, mean gap %.0f s) ===\n", mix, *gap)
		byName := map[string]float64{}
		var worst float64
		for _, r := range rs {
			byName[r.Scheduler] = r.AvgResponseSec
			if r.AvgResponseSec > worst {
				worst = r.AvgResponseSec
			}
		}
		for _, r := range rs {
			bar := max(1, int(40*r.AvgResponseSec/worst))
			fmt.Printf("%-5s %8.1f s  %s\n", r.Scheduler, r.AvgResponseSec, strings.Repeat("#", bar))
		}
		fmt.Printf("SWRD improves on HFS by %.1f%%, on HCS by %.1f%%\n",
			100*(1-byName["SWRD"]/byName["HFS"]),
			100*(1-byName["SWRD"]/byName["HCS"]))
	}
	fmt.Println("\nPaper Figure 8: SWRD reduces average response times by 40.2%/43.9%")
	fmt.Println("versus HFS and 72.8%/27.4% versus HCS on Bing/Facebook.")

	// Live prediction drift accumulated across every simulated run: Eq. 8
	// job predictions against simulated times under concurrent load, and
	// the estimator's IS/FS output against the oracle catalog.
	drift := o.Drift.Snapshot()
	fmt.Println("\nPrediction drift during the runs (job time under load):")
	for _, s := range drift.Jobs {
		fmt.Printf("  %-8s mean rel err=%6.1f%%  pred mean=%7.1f s  actual mean=%7.1f s  (n=%d)\n",
			s.Category, 100*s.MeanRelError, s.MeanPredicted, s.MeanActual, s.N)
	}
	fmt.Println("Selectivity estimate drift (estimator vs oracle):")
	for _, s := range drift.Estimates {
		fmt.Printf("  %-12s mean rel err=%6.1f%%  (n=%d)\n", s.Category, 100*s.MeanRelError, s.N)
	}
}
