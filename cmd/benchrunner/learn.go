package main

import (
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"saqp"
)

// The learning replay's registry shape, fixed at the values every
// recorded run used: a 100-sample promotion window, a 50-sample
// challenger warm-up, a 5% promotion margin, and one convergence point
// per 25 job samples.
const (
	learnWindow     = 100
	learnMinSamples = 50
	learnMargin     = 0.05
	learnPointEvery = 25
)

// learnReport is BENCH_learn.json: the convergence replay's outcome plus
// its parameters. Every field except WallSeconds is deterministic in the
// seed and corpus size.
type learnReport struct {
	Experiment string  `json:"experiment"`
	Seed       uint64  `json:"seed"`
	Window     int     `json:"window"`
	MinSamples int     `json:"min_samples"`
	Margin     float64 `json:"margin"`

	Result *saqp.LearnReplayResult `json:"result"`

	WallSeconds float64 `json:"wall_seconds"`
}

// learnReplay feeds a seeded corpus of cfg.CorpusQueries queries through
// a cold model-lifecycle registry, prints the convergence curve and
// promotion sequence and returns the BENCH_learn.json report. Whether the
// challenger must land within 10% of the batch fit is
// TestLearningReplayConverges's to say.
func learnReplay(cfg saqp.ExperimentConfig, csvDir string) (any, error) {
	fmt.Printf("Learning replay: %d queries (seed %d), window %d, min-samples %d, margin %.2f\n",
		cfg.CorpusQueries, cfg.Seed, learnWindow, learnMinSamples, learnMargin)

	begin := time.Now()
	r, err := saqp.ReproduceLearningReplay(saqp.LearnReplayConfig{
		Queries:       cfg.CorpusQueries,
		Seed:          cfg.Seed,
		Window:        learnWindow,
		MinSamples:    learnMinSamples,
		PromoteMargin: learnMargin,
		PointEvery:    learnPointEvery,
		Observer:      cfg.Observer,
	})
	if err != nil {
		return nil, err
	}
	wall := time.Since(begin).Seconds()

	header("Learning Replay: online RLS convergence and champion promotion")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "queries\t%d (%d job samples, %d task samples)\n", r.Queries, r.JobSamples, r.TaskSamples)
	fmt.Fprintf(w, "promotions\t%d (final model version %d)\n", len(r.Promotions), r.FinalVersion)
	for _, p := range r.Promotions {
		champ := "cold start"
		if p.ChampionErr >= 0 {
			champ = fmt.Sprintf("champion %.2f%%", 100*p.ChampionErr)
		}
		fmt.Fprintf(w, "  v%d\tat %d job samples (%s → challenger %.2f%%)\n",
			p.Version, p.AtJobSamples, champ, 100*p.ChallengerErr)
	}
	fmt.Fprintf(w, "final challenger err\t%.2f%% over the full stream\n", 100*r.FinalChallengerErr)
	fmt.Fprintf(w, "batch baseline err\t%.2f%% (same samples, offline fit)\n", 100*r.BatchErr)
	w.Flush()

	fmt.Println("\njob samples  version  challenger err over full stream")
	rows := [][]string{{"job_samples", "version", "challenger_err"}}
	for _, p := range r.Points {
		fmt.Printf("%11d  %7d  %.4f\n", p.JobSamples, p.Version, p.ChallengerErr)
		rows = append(rows, []string{fmt.Sprint(p.JobSamples), fmt.Sprint(p.Version), f2(p.ChallengerErr)})
	}
	if err := writeCSV(csvDir, "learn", rows); err != nil {
		return nil, err
	}
	return learnReport{
		Experiment: "learn",
		Seed:       cfg.Seed,
		Window:     learnWindow,
		MinSamples: learnMinSamples,
		Margin:     learnMargin,
		Result:     r,

		WallSeconds: wall,
	}, nil
}
