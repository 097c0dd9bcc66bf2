package main

import (
	"fmt"
	"sort"
	"strings"

	"saqp"
	"saqp/internal/predict"
	"saqp/internal/repro"
)

// env is what a row may draw on: the experiment config (observer
// attached when any side output was asked for), the trained artifacts
// when a selected row needs them, and fig8's arrival gap.
type env struct {
	cfg repro.ExperimentConfig
	art *repro.TrainedArtifacts
	gap float64
}

// row is one line of the -exp table. It returns its data — never prints —
// and, for the replays, its own BENCH report (recovery outcome,
// convergence curve); a nil report gets the generic wall-time + metrics
// one. The -exp help, the set of rows that need trained models and the
// unknown-name error are all read off this table.
type row struct {
	name   string
	models bool
	run    func(e *env) (*table, report, error)
}

var rows = []row{
	{"table2", false, table2},
	{"fig5", false, fig5},
	{"table3", true, table3},
	{"fig6", true, fig6},
	{"table4", true, table4},
	{"table5", true, table5},
	{"fig7", true, fig7},
	{"fig2", true, fig2},
	{"fig8", true, fig8},
	{"fault", false, faultReplay},
	{"learn", true, learnReplay},
	// Last, so the cumulative metrics of every earlier report stay put.
	{"ablations", true, ablations},
}

// expNames lists what -exp accepts: every row, then "all".
func expNames() string {
	names := make([]string, len(rows))
	for i, r := range rows {
		names[i] = r.name
	}
	return strings.Join(names, "|") + "|all"
}

func table2(*env) (*table, report, error) {
	t := newTable("Table 2: Composition of Bing and Facebook Workloads", "bin input_size bing facebook")
	for _, r := range repro.ReproduceTable2() {
		t.add(r.Bin, r.InputDesc, r.Bing, r.Facebook)
	}
	return t, nil, nil
}

func fig5(*env) (*table, report, error) {
	jobs, err := repro.ReproduceFig5()
	if err != nil {
		return nil, nil, err
	}
	t := newTable("Fig 5 / Section 3.2: Selectivity Estimation for Modified TPC-H Q11 (SF 1)",
		"job type is fs out_tuples")
	for _, r := range jobs {
		t.add(r.ID, r.Type, r.IS, r.FS, whole(r.OutRows))
	}
	t.notes = []string{"(paper: nation predicate ≈96% relayed along the tree; groupby cardinality ≈200,000)"}
	return t, nil, nil
}

// accuracyTable lays out Tables 3–5: one row per operator group.
func accuracyTable(title, paper string, groups []predict.GroupAccuracy) *table {
	t := newTable(title, "types r_squared avg_error n")
	for _, r := range groups {
		t.add(r.Op, pct(r.RSquared), pct(r.AvgError), r.N)
	}
	t.notes = []string{paper}
	return t
}

func table3(e *env) (*table, report, error) {
	res := repro.ReproduceTable3(e.art)
	t := accuracyTable("Table 3: Accuracy Statistics — Job Time Prediction (Eq. 8)",
		"(paper: Groupby 96.75%/8.63%, Join 92.71%/14.40%, Extract 84.64%/9.38%, TestSet 13.98%)",
		res.TrainRows)
	t.add("TestSet", nil, pct(res.TestSetAvgError), res.TestSetJobs)
	return t, nil, nil
}

func table4(e *env) (*table, report, error) {
	return accuracyTable("Table 4: Map Task Time Prediction (training set)",
		"(paper: Join 85.6%/16.27%, Groupby 92.4%/24.8%, Extract 92.74%/14.5%, Together 87.05%/20.5%)",
		repro.ReproduceTable4(e.art)), nil, nil
}

func table5(e *env) (*table, report, error) {
	return accuracyTable("Table 5: Reduce Task Time Prediction (training set)",
		"(paper: Join 85.83%/14.23%, Groupby 98.82%/4.67%, Extract 90.03%/6.18%, Together 90.68%/7.4%)",
		repro.ReproduceTable5(e.art)), nil, nil
}

func fig6(e *env) (*table, report, error) {
	pts := repro.ReproduceFig6(e.art)
	sort.Slice(pts, func(i, j int) bool { return pts[i].Actual < pts[j].Actual })
	t := newTable("Fig 6: Accuracy of Job Execution Prediction (test set scatter)",
		"actual_sec predicted_sec operator")
	for _, p := range pts {
		t.add(secs(p.Actual), secs(p.Predicted), p.Operator)
	}
	t.every = 8
	t.notes = []string{"(every 8th point, by actual time; perfect prediction = equal columns)"}
	return t, nil, nil
}

func fig7(e *env) (*table, report, error) {
	res, err := repro.ReproduceFig7(e.art, e.cfg, 15)
	if err != nil {
		return nil, nil, err
	}
	t := newTable("Fig 7: Accuracy of Query Response Time Prediction (100 GB queries)",
		"actual_sec predicted_sec")
	for _, p := range res.Points {
		t.add(secs(p.Actual), secs(p.Predicted))
	}
	t.notes = []string{fmt.Sprintf("average prediction error: %.2f%% (paper: 8.3%%)", 100*res.AvgError)}
	return t, nil, nil
}

func fig2(e *env) (*table, report, error) {
	t := newTable("Fig 1-2: Motivation — QA(10GB), QB(100GB), QC(10GB) under HCS vs SWRD",
		"scheduler query response_sec alone_sec slowdown")
	for _, sch := range []string{saqp.SchedulerHCS, saqp.SchedulerSWRD} {
		res, err := repro.ReproduceFig2(sch, e.art, e.cfg)
		if err != nil {
			return nil, nil, err
		}
		for _, q := range res.Queries {
			t.add(sch, q.Name, secs(q.Response), secs(q.Alone), times(q.Slowdown))
			spans := fmt.Sprintf("%s %s job spans (start-end s):", sch, q.Name)
			for i, sp := range q.JobSpans {
				spans += fmt.Sprintf("  %s[%.0f-%.0f]", q.JobLabels[i], sp[0], sp[1])
			}
			t.notes = append(t.notes, spans)
		}
	}
	t.notes = append(t.notes, "(paper: HCS delays the small queries ~3x through resource thrashing)")
	return t, nil, nil
}

func fig8(e *env) (*table, report, error) {
	t := newTable("Fig 8: Average Query Response Times — Bing & Facebook Workloads",
		"workload scheduler avg_sec p50_sec p95_sec bin1 bin2 bin3 bin4 bin5 makespan_sec")
	for _, mix := range []string{"bing", "facebook"} {
		rs, err := repro.ReproduceFig8(mix, e.art, e.cfg, e.gap)
		if err != nil {
			return nil, nil, err
		}
		avg := map[string]float64{}
		for _, r := range rs {
			avg[r.Scheduler] = r.AvgResponseSec
			t.add(r.Workload, r.Scheduler, secs(r.AvgResponseSec), secs(r.P50Sec), secs(r.P95Sec),
				whole(r.AvgByBin[1]), whole(r.AvgByBin[2]), whole(r.AvgByBin[3]), whole(r.AvgByBin[4]),
				whole(r.AvgByBin[5]), secs(r.Makespan))
		}
		t.notes = append(t.notes, fmt.Sprintf("%s: SWRD gain vs HFS %.1f%%, vs HCS %.1f%%", mix,
			100*(1-avg[saqp.SchedulerSWRD]/avg[saqp.SchedulerHFS]),
			100*(1-avg[saqp.SchedulerSWRD]/avg[saqp.SchedulerHCS])))
	}
	t.notes = append(t.notes, "(paper: SWRD vs HFS -40.2%/-43.9%; vs HCS -72.8%/-27.4%)")
	return t, nil, nil
}

// ablations lays out the design-choice ablations in long format, one
// measured cell per row; every baseline is a cell of fig8 or table3.
func ablations(e *env) (*table, report, error) {
	rs, err := repro.ReproduceAblations(e.art, e.cfg, e.gap)
	if err != nil {
		return nil, nil, err
	}
	t := newTable("Ablations: the design choices behind Table 3 and Fig 8 (DESIGN.md A1-A6)",
		"ablation variant metric value")
	got := map[string]float64{}
	for _, r := range rs {
		t.add(r.Ablation, r.Variant, r.Metric, r.Value)
		got[r.Ablation+" "+r.Variant] = r.Value
	}
	t.notes = []string{
		fmt.Sprintf("A2: SWRD on a constant per-task guess is %.2f%% slower than on the trained Eq. 9 model",
			100*(got["A2_swrd_predictor constant"]/got["A2_swrd_predictor trained"]-1)),
		"A3: 1 queue is fig8's HCS; with 4 or 16 the result depends on how query ids hash onto the queues",
		fmt.Sprintf("A5: preemptive reduce scheduling moves HFS's Bing average by %+.1f%%",
			100*(got["A5_hfs_preemptive_reduce on"]/got["A5_hfs_preemptive_reduce off"]-1)),
		"A6: skew on is table3's Join row; off rebuilds the corpus with uniform reducers (paper: Join 92.71%/14.40%)",
	}
	return t, nil, nil
}

// faultReport is BENCH_fault.json: the replay's parameters and outcome,
// then the faulted run's recovery counters, all at the top level.
type faultReport struct {
	Experiment string `json:"experiment"`
	*repro.FaultReplayResult
	saqp.FaultStats
	wall
}

// faultReplay replays three rounds of the canonical TPC-H set twice —
// clean, then under the default fault plan seeded with the experiment
// seed. Whether recovery must complete every query is
// TestFaultReplayDefaultPlanCompletes's to say.
func faultReplay(e *env) (*table, report, error) {
	spec := saqp.DefaultFaultSpec(e.cfg.Seed)
	r, err := repro.ReproduceFaultReplay(e.cfg, saqp.NewFaultPlan(spec), 3)
	if err != nil {
		return nil, nil, err
	}
	t := newTable("Fault Replay: TPC-H under deterministic fault injection",
		"queries completed failed completion_rate clean_p50_sec fault_p50_sec clean_p99_sec fault_p99_sec "+
			"task_failures task_retries node_crashes nodes_blacklisted")
	t.add(r.Queries, r.Completed, r.Failed, pct(r.CompletionRate),
		secs(r.CleanP50Sec), secs(r.FaultP50Sec), secs(r.CleanP99Sec), secs(r.FaultP99Sec),
		r.Faults.TaskFailures, r.Faults.TaskRetries, r.Faults.NodeCrashes, r.Faults.NodesBlacklisted)
	t.notes = []string{
		fmt.Sprintf("%d round(s) of the TPC-H set under %s, gap %.0fs, plan seed %d (%d nodes, horizon %.0fs)",
			r.Rounds, r.Scheduler, r.GapSec, r.FaultSeed, spec.Nodes, spec.HorizonSec),
		fmt.Sprintf("inflation p50 %.2fx, p99 %.2fx; makespan %.1fs clean → %.1fs faulted; %d node recover(ies)",
			r.P50Inflation, r.P99Inflation, r.CleanMakespanSec, r.FaultMakespanSec, r.Faults.NodeRecoveries),
	}
	return t, &faultReport{Experiment: "fault", FaultReplayResult: r, FaultStats: r.Faults}, nil
}

// learnReport is BENCH_learn.json: the registry's shape, then the
// convergence replay's outcome.
type learnReport struct {
	Experiment string                   `json:"experiment"`
	Seed       uint64                   `json:"seed"`
	Window     int                      `json:"window"`
	MinSamples int                      `json:"min_samples"`
	Margin     float64                  `json:"margin"`
	Result     *repro.LearnReplayResult `json:"result"`
	wall
}

// learnReplay feeds the models' corpus through a cold model-lifecycle
// registry at its default shape. That the fully-fed challenger must equal
// the batch fit is TestLearningReplayConverges's to say.
func learnReplay(e *env) (*table, report, error) {
	r, err := repro.ReproduceLearningReplay(e.art.Corpus, e.cfg.Observer)
	if err != nil {
		return nil, nil, err
	}
	shape := saqp.LearnerConfig{}.WithDefaults()
	t := newTable("Learning Replay: online RLS convergence and champion promotion",
		"job_samples version challenger_err")
	for _, p := range r.Points {
		t.add(p.JobSamples, p.Version, p.ChallengerErr)
	}
	t.notes = []string{fmt.Sprintf("%d queries (seed %d; %d job samples, %d task samples), window %d, min-samples %d, margin %.2f",
		r.Queries, e.cfg.Seed, r.JobSamples, r.TaskSamples, shape.Window, shape.MinSamples, shape.PromoteMargin)}
	for _, p := range r.Promotions {
		champ := "cold start"
		if p.ChampionErr >= 0 {
			champ = fmt.Sprintf("champion %.2f%%", 100*p.ChampionErr)
		}
		t.notes = append(t.notes, fmt.Sprintf("promoted v%d at %d job samples (%s → challenger %.2f%%)",
			p.Version, p.AtJobSamples, champ, 100*p.ChallengerErr))
	}
	t.notes = append(t.notes, fmt.Sprintf("final model version %d; challenger err %.2f%% over the full stream, batch baseline %.2f%% (same samples, offline fit)",
		r.FinalVersion, 100*r.FinalChallengerErr, 100*r.BatchErr))
	return t, &learnReport{Experiment: "learn", Seed: e.cfg.Seed, Window: shape.Window,
		MinSamples: shape.MinSamples, Margin: shape.PromoteMargin, Result: r}, nil
}
