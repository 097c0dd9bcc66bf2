// Accuracy study: reproduce the paper's prediction-accuracy artifacts —
// Table 3 (job time model, Eq. 8), Tables 4 and 5 (map/reduce task models,
// Eq. 9), Figure 6 (job scatter) and Figure 7 (query-level prediction on
// 100 GB queries).
//
// The corpus mirrors Section 5.1: ~1,000 TPC-H/TPC-DS-shaped queries over
// 1–100 GB inputs, executed on the simulated cluster; 3/4 train, 1/4 test.
// Pass -queries to change corpus size (default 240 for a fast run).
//
//	go run ./examples/accuracy [-queries 1000]
package main

import (
	"flag"
	"fmt"
	"log"

	"saqp"
)

func main() {
	queries := flag.Int("queries", 240, "corpus size (paper: 1000)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"accuracy reproduces the paper's prediction-accuracy artifacts: Table 3\n"+
				"(job time model, Eq. 8), Tables 4-5 (map/reduce task models, Eq. 9),\n"+
				"Figure 6 (job scatter) and Figure 7 (query-level prediction).\n\n"+
				"usage: go run ./examples/accuracy [flags]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	cfg := saqp.DefaultExperimentConfig()
	cfg.CorpusQueries = *queries
	fmt.Printf("Building corpus of %d queries...\n", *queries)
	art, err := saqp.BuildTrainedArtifacts(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Corpus: %d queries -> %d MapReduce jobs, %d task samples\n",
		len(art.Corpus.Runs), art.Corpus.NumJobs(), len(art.Corpus.TaskSamples))

	// Replay the training samples through the observability layer's drift
	// recorder and print Tables 3-5 from its snapshot: the same numbers
	// live instrumentation accumulates during simulated runs.
	o := saqp.NewObserver(nil)
	saqp.RecordCorpusDrift(art, o)
	drift := o.Drift.Snapshot()

	t3 := saqp.ReproduceTable3(art)
	fmt.Println("\nTable 3 — job execution time (training set, via drift recorder):")
	for _, r := range drift.Jobs {
		fmt.Printf("  %-8s R²=%6.2f%%  avg err=%6.2f%%  (n=%d)\n",
			r.Category, 100*r.RSquared, 100*r.MeanRelError, r.N)
	}
	fmt.Printf("  TestSet avg err=%6.2f%% over %d jobs (paper: 13.98%%)\n",
		100*t3.TestSetAvgError, t3.TestSetJobs)

	fmt.Println("\nTables 4 and 5 — map/reduce task time (training set, via drift recorder):")
	for _, r := range drift.Tasks {
		fmt.Printf("  %-16s R²=%6.2f%%  avg err=%6.2f%%  (n=%d)\n",
			r.Category, 100*r.RSquared, 100*r.MeanRelError, r.N)
	}
	together := map[bool][]saqp.GroupAccuracy{false: saqp.ReproduceTable4(art), true: saqp.ReproduceTable5(art)}
	for _, reduce := range []bool{false, true} {
		for _, r := range together[reduce] {
			if r.Op != "Together" {
				continue
			}
			phase := "map"
			if reduce {
				phase = "reduce"
			}
			fmt.Printf("  Together/%-7s R²=%6.2f%%  avg err=%6.2f%%  (n=%d)\n",
				phase, 100*r.RSquared, 100*r.AvgError, r.N)
		}
	}

	pts := saqp.ReproduceFig6(art)
	var under, over int
	for _, p := range pts {
		if p.Predicted < p.Actual {
			under++
		} else {
			over++
		}
	}
	fmt.Printf("\nFigure 6 — %d test-set jobs scatter around the perfect line "+
		"(%d under, %d over)\n", len(pts), under, over)

	f7, err := saqp.ReproduceFig7(art, cfg, 15)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Figure 7 — query response prediction on 100 GB queries: "+
		"avg err %.2f%% (paper: 8.3%%)\n", 100*f7.AvgError)
}
