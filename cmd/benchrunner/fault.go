package main

import (
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"saqp"
)

// The fault replay's shape, fixed at the values every recorded run used:
// three copies of the canonical TPC-H set, Poisson arrivals 20 s apart,
// SWRD for both the clean and the faulted run.
const (
	faultRounds = 3
	faultGapSec = 20
)

// faultReport is BENCH_fault.json: the faulted replay's recovery outcome
// against its clean twin. Every field except WallSeconds is deterministic
// in the seed.
type faultReport struct {
	Experiment string  `json:"experiment"`
	Scheduler  string  `json:"scheduler"`
	Seed       uint64  `json:"seed"`
	FaultSeed  uint64  `json:"fault_seed"`
	Rounds     int     `json:"rounds"`
	GapSec     float64 `json:"gap_sec"`

	Queries        int     `json:"queries"`
	Completed      int     `json:"completed"`
	Failed         int     `json:"failed"`
	CompletionRate float64 `json:"completion_rate"`

	CleanP50Sec      float64 `json:"clean_p50_sec"`
	CleanP99Sec      float64 `json:"clean_p99_sec"`
	FaultP50Sec      float64 `json:"fault_p50_sec"`
	FaultP99Sec      float64 `json:"fault_p99_sec"`
	P50Inflation     float64 `json:"p50_inflation"`
	P99Inflation     float64 `json:"p99_inflation"`
	CleanMakespanSec float64 `json:"clean_makespan_sec"`
	FaultMakespanSec float64 `json:"fault_makespan_sec"`

	TaskFailures       int `json:"task_failures"`
	TaskRetries        int `json:"task_retries"`
	NodeCrashes        int `json:"node_crashes"`
	NodeRecoveries     int `json:"node_recoveries"`
	NodesBlacklisted   int `json:"nodes_blacklisted"`
	SpeculativeCancels int `json:"speculative_cancels"`
	QueryFailures      int `json:"query_failures"`

	WallSeconds float64 `json:"wall_seconds"`
}

// faultReplay replays the canonical TPC-H queries twice — clean, then
// under the default fault plan seeded with cfg.Seed — prints the recovery
// summary and returns the BENCH_fault.json report. Whether recovery must
// complete every query is TestFaultReplayDefaultPlanCompletes's to say.
func faultReplay(cfg saqp.ExperimentConfig, csvDir string) (any, error) {
	spec := saqp.DefaultFaultSpec(cfg.Seed)
	fmt.Printf("Fault replay: %d round(s) of the TPC-H set, gap %ds, plan seed %d (%d nodes, horizon %.0fs)\n",
		faultRounds, faultGapSec, cfg.Seed, spec.Nodes, spec.HorizonSec)

	begin := time.Now()
	r, err := saqp.ReproduceFaultReplay(nil, cfg, saqp.NewFaultPlan(spec),
		saqp.SchedulerSWRD, faultRounds, faultGapSec)
	if err != nil {
		return nil, err
	}
	wall := time.Since(begin).Seconds()

	header("Fault Replay: TPC-H under deterministic fault injection")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "queries\t%d (%d completed, %d failed)\n", r.Queries, r.Completed, r.Failed)
	fmt.Fprintf(w, "completion rate\t%.1f%%\n", 100*r.CompletionRate)
	fmt.Fprintf(w, "p50 response\t%.1fs clean → %.1fs faulted (%.2fx)\n", r.CleanP50Sec, r.FaultP50Sec, r.P50Inflation)
	fmt.Fprintf(w, "p99 response\t%.1fs clean → %.1fs faulted (%.2fx)\n", r.CleanP99Sec, r.FaultP99Sec, r.P99Inflation)
	fmt.Fprintf(w, "makespan\t%.1fs clean → %.1fs faulted\n", r.CleanMakespanSec, r.FaultMakespanSec)
	fmt.Fprintf(w, "injected\t%d task failure(s), %d node crash(es)\n", r.Faults.TaskFailures, r.Faults.NodeCrashes)
	fmt.Fprintf(w, "recovered\t%d task retr(ies), %d node recover(ies), %d blacklist(s), %d speculative cancel(s)\n",
		r.Faults.TaskRetries, r.Faults.NodeRecoveries, r.Faults.NodesBlacklisted, r.Faults.SpeculativeCancels)
	w.Flush()

	if err := writeCSV(csvDir, "fault", [][]string{
		{"queries", "completed", "failed", "completion_rate",
			"clean_p50_sec", "fault_p50_sec", "clean_p99_sec", "fault_p99_sec",
			"task_failures", "task_retries", "node_crashes", "nodes_blacklisted"},
		{fmt.Sprint(r.Queries), fmt.Sprint(r.Completed), fmt.Sprint(r.Failed), f2(r.CompletionRate),
			f2(r.CleanP50Sec), f2(r.FaultP50Sec), f2(r.CleanP99Sec), f2(r.FaultP99Sec),
			fmt.Sprint(r.Faults.TaskFailures), fmt.Sprint(r.Faults.TaskRetries),
			fmt.Sprint(r.Faults.NodeCrashes), fmt.Sprint(r.Faults.NodesBlacklisted)},
	}); err != nil {
		return nil, err
	}

	return faultReport{
		Experiment: "fault",
		Scheduler:  r.Scheduler,
		Seed:       cfg.Seed,
		FaultSeed:  cfg.Seed,
		Rounds:     faultRounds,
		GapSec:     faultGapSec,

		Queries:        r.Queries,
		Completed:      r.Completed,
		Failed:         r.Failed,
		CompletionRate: r.CompletionRate,

		CleanP50Sec:      r.CleanP50Sec,
		CleanP99Sec:      r.CleanP99Sec,
		FaultP50Sec:      r.FaultP50Sec,
		FaultP99Sec:      r.FaultP99Sec,
		P50Inflation:     r.P50Inflation,
		P99Inflation:     r.P99Inflation,
		CleanMakespanSec: r.CleanMakespanSec,
		FaultMakespanSec: r.FaultMakespanSec,

		TaskFailures:       r.Faults.TaskFailures,
		TaskRetries:        r.Faults.TaskRetries,
		NodeCrashes:        r.Faults.NodeCrashes,
		NodeRecoveries:     r.Faults.NodeRecoveries,
		NodesBlacklisted:   r.Faults.NodesBlacklisted,
		SpeculativeCancels: r.Faults.SpeculativeCancels,
		QueryFailures:      r.Faults.QueryFailures,

		WallSeconds: wall,
	}, nil
}
