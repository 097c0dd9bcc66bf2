package repro

import (
	"fmt"
	"math"

	"saqp/internal/catalog"
	"saqp/internal/cluster"
	"saqp/internal/core"
	"saqp/internal/dataset"
	"saqp/internal/fault"
	"saqp/internal/learn"
	"saqp/internal/obs"
	"saqp/internal/plan"
	"saqp/internal/predict"
	"saqp/internal/query"
	"saqp/internal/sched"
	"saqp/internal/selectivity"
	"saqp/internal/sim"
	"saqp/internal/trace"
	"saqp/internal/workload"
)

// ExperimentConfig bundles the shared experiment knobs.
type ExperimentConfig struct {
	// CorpusQueries sizes the training/evaluation corpus (paper: ~1,000).
	CorpusQueries int
	// Seed drives all randomness.
	Seed uint64
	// Cluster sizes the simulated testbed.
	Cluster cluster.Config
	// Observer, when non-nil, instruments the simulated workload runs
	// (Fig. 2 and Fig. 8): trace spans, cluster metrics, scheduler
	// decisions, and prediction drift per job category.
	Observer *obs.Observer
}

// DefaultExperimentConfig mirrors the paper's setup at a size that runs in
// seconds. For the full-scale run set CorpusQueries to 1000.
func DefaultExperimentConfig() ExperimentConfig {
	return ExperimentConfig{
		CorpusQueries: 240,
		Seed:          2018,
		Cluster:       cluster.DefaultConfig(),
	}
}

// corpusConfig is the corpus the experiment config describes: the paper's
// setup with the config's size, seed and testbed; a zero size, seed or
// cluster keeps workload.DefaultCorpusConfig's.
func (cfg ExperimentConfig) corpusConfig() workload.CorpusConfig {
	ccfg := workload.DefaultCorpusConfig()
	if cfg.CorpusQueries > 0 {
		ccfg.NumQueries = cfg.CorpusQueries
	}
	if cfg.Seed != 0 {
		ccfg.Seed = cfg.Seed
	}
	if cfg.Cluster.Nodes > 0 {
		ccfg.Cluster = cfg.Cluster
	}
	return ccfg
}

// TrainedArtifacts holds everything trained once and shared by experiments.
type TrainedArtifacts struct {
	Corpus *workload.Corpus
	Train  *workload.Corpus
	Test   *workload.Corpus
	Jobs   *predict.JobModel
	Tasks  *predict.TaskModel
}

// BuildTrainedArtifacts generates the corpus (paper Section 5.1: TPC-H and
// TPC-DS queries over 1–100 GB, 3/4 train, 1/4 test) and fits the models.
func BuildTrainedArtifacts(cfg ExperimentConfig) (*TrainedArtifacts, error) {
	corpus, err := workload.BuildCorpus(cfg.corpusConfig())
	if err != nil {
		return nil, err
	}
	train, test := corpus.Split(0.75)
	jm, err := predict.FitJobModel(train.JobSamples)
	if err != nil {
		return nil, err
	}
	tm, err := predict.FitTaskModel(train.TaskSamples)
	if err != nil {
		return nil, err
	}
	return &TrainedArtifacts{Corpus: corpus, Train: train, Test: test, Jobs: jm, Tasks: tm}, nil
}

// estimateSQL compiles sql against the synthetic TPC-H/TPC-DS schemas and
// estimates it over cat with the default estimator config: what the
// facade's Framework.Compile and Framework.Estimate do.
func estimateSQL(cat *catalog.Catalog, sql string) (*selectivity.QueryEstimate, error) {
	q, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	if err := query.Resolve(q, dataset.AllSchemas()); err != nil {
		return nil, err
	}
	d, err := plan.Compile(q)
	if err != nil {
		return nil, err
	}
	return selectivity.NewEstimator(cat, selectivity.Config{}).EstimateQuery(d)
}

// ---------------------------------------------------------------------------
// Table 3 + Figure 6: job time prediction accuracy
// ---------------------------------------------------------------------------

// Table3Result is the accuracy summary of the job-time model.
type Table3Result struct {
	// TrainRows reproduces Table 3's per-operator rows (training set).
	TrainRows []predict.GroupAccuracy
	// TestSetAvgError is the paper's "TestSet" row: prediction-time
	// features (estimated, not observed) against observed job times.
	TestSetAvgError float64
	TestSetJobs     int
}

// ScatterPoint is one (actual, predicted) pair — Figures 6 and 7.
type ScatterPoint struct {
	Actual, Predicted float64
	Operator          string
}

// ReproduceTable3 evaluates the Eq. 8 job model like the paper's Table 3;
// its TestSet row averages the relative error over Figure 6's points.
func ReproduceTable3(a *TrainedArtifacts) Table3Result {
	res := Table3Result{TrainRows: a.Jobs.JobAccuracyByOperator(a.Train.JobSamples)}
	var sum float64
	for _, p := range ReproduceFig6(a) {
		if p.Actual > 0 {
			sum += math.Abs(p.Predicted-p.Actual) / p.Actual
			res.TestSetJobs++
		}
	}
	if res.TestSetJobs > 0 {
		res.TestSetAvgError = sum / float64(res.TestSetJobs)
	}
	return res
}

// ReproduceFig6 returns the test-set scatter of actual vs predicted job
// execution times (Figure 6).
func ReproduceFig6(a *TrainedArtifacts) []ScatterPoint {
	var pts []ScatterPoint
	for _, run := range a.Test.Runs {
		for ji, je := range run.Est.Jobs {
			pts = append(pts, ScatterPoint{
				Actual:    run.JobSamples[ji].Seconds,
				Predicted: a.Jobs.PredictJob(je),
				Operator:  je.Job.Type.String(),
			})
		}
	}
	return pts
}

// ---------------------------------------------------------------------------
// Tables 4 and 5: task time prediction accuracy
// ---------------------------------------------------------------------------

// ReproduceTable4 evaluates the map-task model per operator (training set).
func ReproduceTable4(a *TrainedArtifacts) []predict.GroupAccuracy {
	return a.Tasks.TaskAccuracyByOperator(a.Train.TaskSamples, false)
}

// ReproduceTable5 evaluates the reduce-task model per operator (training
// set).
func ReproduceTable5(a *TrainedArtifacts) []predict.GroupAccuracy {
	return a.Tasks.TaskAccuracyByOperator(a.Train.TaskSamples, true)
}

// ---------------------------------------------------------------------------
// Figure 7: query response time prediction on 100 GB queries
// ---------------------------------------------------------------------------

// Fig7Result is the query-level prediction validation.
type Fig7Result struct {
	Points   []ScatterPoint
	AvgError float64
}

// ReproduceFig7 predicts whole-query response times for fresh 100 GB
// queries via the task model composed along the critical path, and compares
// with simulated standalone execution (paper: avg error 8.3%).
func ReproduceFig7(a *TrainedArtifacts, cfg ExperimentConfig, numQueries int) (Fig7Result, error) {
	if numQueries <= 0 {
		numQueries = 15
	}
	gen := workload.NewGenerator(cfg.Seed ^ 0xf1677)
	stats := workload.NewStats(workload.DefaultCorpusConfig())
	cm := trace.NewDefaultCostModel(cfg.Seed ^ 0x7fe)
	slots, ov := core.Capacity(cfg.Cluster)
	w := new(workload.Runner)
	var res Fig7Result
	var sum float64
	for i := 0; i < numQueries; i++ {
		q, _, err := gen.RandomQuery()
		if err != nil {
			return res, err
		}
		sf := workload.SFForTargetBytes(q, 100e9)
		run, err := workload.RunStandalone(w, q, sf, stats, cm, cfg.Cluster)
		if err != nil {
			return res, err
		}
		pred := a.Tasks.PredictQuery(run.Est, slots, ov)
		res.Points = append(res.Points, ScatterPoint{Actual: run.Seconds, Predicted: pred})
		if run.Seconds > 0 {
			sum += math.Abs(pred-run.Seconds) / run.Seconds
		}
	}
	res.AvgError = sum / float64(len(res.Points))
	return res, nil
}

// ---------------------------------------------------------------------------
// The replay behind every simulated experiment
// ---------------------------------------------------------------------------

// replayItem is one query of a simulated experiment, prepared once and
// replayed under as many cluster configs and schedulers as the experiment
// compares.
type replayItem struct {
	name string
	// est is the estimate the predictor sees; oracle sizes the tasks and
	// draws their hidden durations. They are one estimate where an
	// experiment has no second statistics resolution.
	est, oracle *selectivity.QueryEstimate
	arrival     float64
	// seed seeds the item's own cost model under replay.perItemCost.
	seed uint64
}

// replay is the one act behind Fig. 2, Fig. 8 and the fault replay:
// percolate prepared queries onto a simulated cluster, submit them at
// their arrival times under a scheduler, and read response times and
// Eq. 8 drift back. An experiment is a list of items and the (cluster
// config, scheduler) pairs it hands to run.
type replay struct {
	items []replayItem
	// tasks is the Eq. 9 model whose predictions are percolated onto the
	// tasks (nil: the constant, semantics-free baseline); jobs is the
	// Eq. 8 model job drift is scored with (nil: none is recorded).
	jobs  *predict.JobModel
	tasks *predict.TaskModel
	// costSeed seeds the hidden cost model all items draw their task
	// durations from, in item order; with perItemCost each item draws
	// from a model of its own, seeded by the item.
	costSeed    uint64
	perItemCost bool
}

// models returns the artifacts' job and task models; nil artifacts have
// neither.
func (a *TrainedArtifacts) models() (*predict.JobModel, *predict.TaskModel) {
	if a == nil {
		return nil, nil
	}
	return a.Jobs, a.Tasks
}

// add compiles q and estimates it at both statistics resolutions over the
// database at scale factor sf, appending the result as an item.
func (r *replay) add(stats *workload.Stats, name string, q *query.Query, sf, arrival float64) error {
	d, err := plan.Compile(q)
	if err != nil {
		return err
	}
	est, oracle, err := stats.Estimate(d, sf)
	if err != nil {
		return err
	}
	r.items = append(r.items, replayItem{name: name, est: est, oracle: oracle, arrival: arrival})
	return nil
}

// recordEstimateDrift logs every item's per-job selectivity estimates
// (IS/FS) against the oracle's values, keyed by operator category. It is
// per query, not per run: an experiment calls it once however many
// schedulers it replays under.
func (r *replay) recordEstimateDrift(o *obs.Observer) {
	if o == nil || o.Drift == nil {
		return
	}
	for _, it := range r.items {
		for ji, je := range it.est.Jobs {
			tj := it.oracle.Jobs[ji]
			cat := je.Job.Type.String()
			o.Drift.RecordEstimate(cat, "IS", je.IS, tj.IS)
			o.Drift.RecordEstimate(cat, "FS", je.FS, tj.FS)
		}
	}
}

// everyItem is run's alone argument for the usual replay: all items, each
// at its arrival time.
const everyItem = -1

// run replays the items once: it percolates a fresh cluster query per
// item (task state is per run; cross-layer semantics percolation,
// internal/core), submits them at their arrival times — or, with
// alone >= 0, only that item, at time zero — to a cluster of config cc
// under pol, runs it to completion and records the Eq. 8 drift of every
// submitted query that finished. A nil observer runs un-instrumented.
// The returned queries align with r.items; every item is percolated even
// when one runs alone, so a shared cost model hands that query the task
// durations it has in company.
func (r *replay) run(cc cluster.Config, pol cluster.Scheduler, o *obs.Observer, alone int) (*cluster.Results, []*cluster.Query, error) {
	cm := trace.NewDefaultCostModel(r.costSeed)
	sim := cluster.New(cc, pol).SetObserver(o)
	qs := make([]*cluster.Query, len(r.items))
	for i, it := range r.items {
		if r.perItemCost {
			cm = trace.NewDefaultCostModel(it.seed)
		}
		qs[i] = core.Percolate(it.name, it.oracle, it.est, cm, r.tasks)
		switch alone {
		case everyItem:
			sim.Submit(qs[i], it.arrival)
		case i:
			sim.Submit(qs[i], 0)
		}
	}
	res, err := sim.Run()
	if err != nil {
		return nil, nil, err
	}
	for i, q := range qs {
		if (alone == everyItem || alone == i) && !q.Failed() {
			core.RecordJobDrift(o, r.jobs, r.items[i].est, q)
		}
	}
	return res, qs, nil
}

// ---------------------------------------------------------------------------
// Figures 1–2: motivation — resource thrashing under HCS
// ---------------------------------------------------------------------------

// MotivationQuery is one of the three queries in the paper's motivating
// experiment (QA and QC: two-job 10 GB aggregations; QB: four-job 100 GB
// join query).
type MotivationQuery struct {
	Name       string
	Response   float64
	Alone      float64
	Slowdown   float64
	JobSpans   [][2]float64 // per job: first task start, last task end
	JobLabels  []string
	InputBytes float64
}

// MotivationResult is the Fig. 1–2 outcome for one scheduler.
type MotivationResult struct {
	Scheduler string
	Queries   []MotivationQuery
	Makespan  float64
}

// ReproduceFig2 runs QA(10 GB), QB(100 GB), QC(10 GB) submitted 5 s apart
// under the named scheduler, plus each query alone, and reports response
// times and slowdowns. As the paper specifies them, QA/QC are instances
// of TPC-H Q14 ("evaluates the market response to a production promotion
// in one month") and QB is TPC-H Q17 — see workload.TPCHQuery for the
// canonical texts. Under HCS the small queries' second jobs are starved
// behind QB's jobs — the thrashing of Figures 1–2.
func ReproduceFig2(scheduler string, a *TrainedArtifacts, cfg ExperimentConfig) (*MotivationResult, error) {
	pol, err := sched.ByName(scheduler)
	if err != nil {
		return nil, err
	}
	rp := &replay{costSeed: cfg.Seed ^ 0x515}
	rp.jobs, rp.tasks = a.models()
	stats := workload.NewStats(workload.DefaultCorpusConfig())
	for _, sp := range []struct {
		name, tpch      string
		target, arrival float64
	}{
		{"QA", "q14", 10e9, 0},
		{"QB", "q17", 100e9, 5},
		{"QC", "q14", 10e9, 10},
	} {
		q, err := workload.TPCHQuery(sp.tpch)
		if err != nil {
			return nil, err
		}
		if err := rp.add(stats, sp.name, q, workload.SFForTargetBytes(q, sp.target), sp.arrival); err != nil {
			return nil, err
		}
	}

	// Concurrent run — the only one the observer instruments, so the trace
	// shows the thrashing rather than three quiet standalone runs.
	rp.recordEstimateDrift(cfg.Observer)
	res, qs, err := rp.run(cfg.Cluster, pol, cfg.Observer, everyItem)
	if err != nil {
		return nil, err
	}

	// Each query alone: its tasks last exactly as long as they did in
	// company (see run), so the slowdown is contention and nothing else.
	out := &MotivationResult{Scheduler: scheduler, Makespan: res.Makespan}
	for i, q := range qs {
		_, alone, err := rp.run(cfg.Cluster, pol, nil, i)
		if err != nil {
			return nil, err
		}
		mq := MotivationQuery{
			Name:       rp.items[i].name,
			Response:   q.ResponseTime(),
			Alone:      alone[i].ResponseTime(),
			InputBytes: rp.items[i].oracle.TotalInputBytes(),
		}
		if mq.Alone > 0 {
			mq.Slowdown = mq.Response / mq.Alone
		}
		for _, j := range q.Jobs {
			start, end := cluster.JobSpan(j)
			mq.JobSpans = append(mq.JobSpans, [2]float64{start, end})
			mq.JobLabels = append(mq.JobLabels, j.JobID+":"+j.Type.String())
		}
		out.Queries = append(out.Queries, mq)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 8: scheduler comparison on Bing and Facebook workloads
// ---------------------------------------------------------------------------

// Fig8Result is the average query response time of one (workload,
// scheduler) cell of Figure 8, with the per-bin breakdown behind the
// paper's fairness claim ("small queries can turn around faster while big
// queries still get their fair share").
type Fig8Result struct {
	Workload       string
	Scheduler      string
	AvgResponseSec float64
	P50Sec, P95Sec float64
	Makespan       float64
	Queries        int
	// AvgByBin maps Table 2 bin number to the bin's mean response time.
	AvgByBin map[int]float64
}

// mixReplay prepares one Table 2 mix for replay: the workload drawn with
// Poisson arrivals meanGapSec apart (default 10), every item estimated at
// both statistics resolutions, and one cost model for all task durations.
// Fig. 8 and the scheduling ablations replay exactly these items.
func mixReplay(mix string, a *TrainedArtifacts, cfg ExperimentConfig, meanGapSec float64) (*replay, *workload.Workload, error) {
	comp, err := workload.Composition(mix)
	if err != nil {
		return nil, nil, err
	}
	if meanGapSec <= 0 {
		meanGapSec = 10
	}
	w, err := workload.BuildWorkload(mix, comp, meanGapSec, cfg.Seed^0xfb8)
	if err != nil {
		return nil, nil, err
	}
	rp := &replay{costSeed: cfg.Seed ^ 0xc0ffee}
	rp.jobs, rp.tasks = a.models()
	stats := workload.NewStats(workload.DefaultCorpusConfig())
	for i, wi := range w.Items {
		if err := rp.add(stats, fmt.Sprintf("%s-%03d", mix, i), wi.Query, wi.SF, wi.ArrivalSec); err != nil {
			return nil, nil, err
		}
	}
	return rp, w, nil
}

// ReproduceFig8 runs one workload mix under the three schedulers and
// reports average query response times (paper Figure 8). meanGapSec sets
// the Poisson arrival rate; the paper's clusters are heavily loaded, so the
// default (10 s) keeps many queries in flight.
func ReproduceFig8(mix string, a *TrainedArtifacts, cfg ExperimentConfig, meanGapSec float64) ([]Fig8Result, error) {
	rp, w, err := mixReplay(mix, a, cfg, meanGapSec)
	if err != nil {
		return nil, err
	}
	rp.recordEstimateDrift(cfg.Observer)

	var out []Fig8Result
	for _, pol := range []cluster.Scheduler{sched.HCS{}, sched.HFS{}, sched.SWRD{}} {
		res, queries, err := rp.run(cfg.Cluster, pol, cfg.Observer, everyItem)
		if err != nil {
			return nil, fmt.Errorf("repro: %s under %s: %w", mix, pol.Name(), err)
		}
		byBin := map[int]float64{}
		binN := map[int]int{}
		for i, q := range queries {
			byBin[w.Items[i].Bin] += q.ResponseTime()
			binN[w.Items[i].Bin]++
		}
		for bin := range byBin {
			byBin[bin] /= float64(binN[bin])
		}
		out = append(out, Fig8Result{
			Workload:       mix,
			Scheduler:      pol.Name(),
			AvgResponseSec: res.AvgResponseTime(),
			P50Sec:         res.PercentileResponse(0.5),
			P95Sec:         res.PercentileResponse(0.95),
			Makespan:       res.Makespan,
			Queries:        len(queries),
			AvgByBin:       byBin,
		})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Ablations: the design choices behind Table 3 and Figure 8
// ---------------------------------------------------------------------------

// AblationResult is one cell of the ablations in long format: a design
// choice (DESIGN.md's A-rows), one setting of it, and one metric that
// setting measured.
type AblationResult struct {
	Ablation string
	Variant  string
	Metric   string
	Value    float64
}

// ablationJoin is A1's many-to-many join of two Zipf-skewed fact tables:
// coarse histogram buckets smear its hot keys and mis-estimate the blow-up.
const ablationJoin = `SELECT ss_quantity FROM store_sales JOIN web_sales ON ws_item_sk = ss_item_sk`

// ReproduceAblations measures the design choices DESIGN.md calls out, each
// on the experiment it ablates, so every baseline is that experiment's own
// cell:
//
//   - A1: ablationJoin's estimated output rows at 8, 64 and 512 histogram
//     buckets, as relative deviation from a 4,096-bucket reference;
//   - A2, A3, A5: Fig. 8's Bing replay (ReproduceFig8's items, seeds and
//     gap) under SWRD with the trained Eq. 9 model vs the constant
//     predictor, HCS with 1, 4 and 16 capacity queues, and HFS without and
//     with preemptive reduce scheduling;
//   - A6: Table 3's Join row, and the same row over the corpus cfg
//     describes rebuilt with reduce-partition skew off.
//
// The variant replays run unobserved, so cfg.Observer's trace and metrics
// end exactly as Fig. 8 left them.
func ReproduceAblations(a *TrainedArtifacts, cfg ExperimentConfig, meanGapSec float64) ([]AblationResult, error) {
	var out []AblationResult
	add := func(ablation, variant, metric string, v float64) {
		out = append(out, AblationResult{Ablation: ablation, Variant: variant, Metric: metric, Value: v})
	}

	var ref float64
	for _, buckets := range []int{4096, 8, 64, 512} {
		qe, err := estimateSQL(catalog.FromSchemas(dataset.TPCDS(), 1, buckets), ablationJoin)
		if err != nil {
			return nil, err
		}
		if rows := qe.Jobs[0].OutRows; buckets == 4096 {
			ref = rows
		} else {
			add("A1_histogram_buckets", fmt.Sprint(buckets), "join_rows_dev_vs_4096", math.Abs(rows-ref)/ref)
		}
	}

	rp, _, err := mixReplay("bing", a, cfg, meanGapSec)
	if err != nil {
		return nil, err
	}
	trained := rp.tasks
	hoarding, preemptive := cfg.Cluster, cfg.Cluster
	hoarding.PreemptiveReduce, preemptive.PreemptiveReduce = false, true
	for _, v := range []struct {
		ablation, variant string
		tasks             *predict.TaskModel
		cc                cluster.Config
		pol               cluster.Scheduler
	}{
		{"A2_swrd_predictor", "trained", trained, cfg.Cluster, sched.SWRD{}},
		{"A2_swrd_predictor", "constant", nil, cfg.Cluster, sched.SWRD{}},
		{"A3_hcs_queues", "1", trained, cfg.Cluster, sched.HCS{Queues: 1}},
		{"A3_hcs_queues", "4", trained, cfg.Cluster, sched.HCS{Queues: 4}},
		{"A3_hcs_queues", "16", trained, cfg.Cluster, sched.HCS{Queues: 16}},
		{"A5_hfs_preemptive_reduce", "off", trained, hoarding, sched.HFS{}},
		{"A5_hfs_preemptive_reduce", "on", trained, preemptive, sched.HFS{}},
	} {
		rp.tasks = v.tasks
		res, _, err := rp.run(v.cc, v.pol, nil, everyItem)
		if err != nil {
			return nil, fmt.Errorf("repro: ablation %s %s: %w", v.ablation, v.variant, err)
		}
		add(v.ablation, v.variant, "bing_avg_response_sec", res.AvgResponseTime())
	}

	uniform := cfg.corpusConfig()
	uniform.Sizing.DisableReduceSkew = true
	corpus, err := workload.BuildCorpus(uniform)
	if err != nil {
		return nil, err
	}
	train, _ := corpus.Split(0.75)
	jm, err := predict.FitJobModel(train.JobSamples)
	if err != nil {
		return nil, err
	}
	skew := [...]string{"on", "off"}
	for i, rows := range [][]predict.GroupAccuracy{ReproduceTable3(a).TrainRows, jm.JobAccuracyByOperator(train.JobSamples)} {
		for _, r := range rows {
			if r.Op == "Join" {
				add("A6_reduce_skew", skew[i], "join_r_squared", r.RSquared)
				add("A6_reduce_skew", skew[i], "join_avg_error", r.AvgError)
			}
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Table 2: workload composition
// ---------------------------------------------------------------------------

// Table2Row is one bin of the workload composition table.
type Table2Row struct {
	Bin       int
	InputDesc string
	Bing      int
	Facebook  int
}

// ReproduceTable2 returns the composition of the Bing and Facebook mixes.
func ReproduceTable2() []Table2Row {
	bing, fb := workload.BingComposition(), workload.FacebookComposition()
	desc := []string{"1-10 GB", "20 GB", "50 GB", "100 GB", ">100 GB"}
	rows := make([]Table2Row, len(bing))
	for i := range bing {
		rows[i] = Table2Row{Bin: bing[i].Bin, InputDesc: desc[i], Bing: bing[i].Count, Facebook: fb[i].Count}
	}
	return rows
}

// ---------------------------------------------------------------------------
// Figure 5 / Section 3.2: selectivity estimation walk-through
// ---------------------------------------------------------------------------

// Fig5Job is one job row in the Q11 walk-through.
type Fig5Job struct {
	ID       string
	Type     string
	IS, FS   float64
	OutRows  float64
	InBytes  float64
	OutBytes float64
}

// ReproduceFig5 runs the paper's modified TPC-H Q11 example through the
// estimator at scale factor 1 and returns the per-job selectivities: the
// nation predicate passes 96% (24 of 25 nations) and the final groupby
// cardinality approaches the 200,000 ps_partkey domain.
func ReproduceFig5() ([]Fig5Job, error) {
	cat := catalog.FromSchemas(dataset.Schemas(), 1, catalog.DefaultBuckets)
	qe, err := estimateSQL(cat, `SELECT ps_partkey, sum(ps_supplycost*ps_availqty)
		FROM nation n JOIN supplier s ON s.s_nationkey = n.n_nationkey AND n.n_name <> 'n_name#b~~~~'
		JOIN partsupp ps ON ps.ps_suppkey = s.s_suppkey
		GROUP BY ps_partkey`)
	if err != nil {
		return nil, err
	}
	var rows []Fig5Job
	for _, je := range qe.Jobs {
		rows = append(rows, Fig5Job{
			ID:       je.Job.ID,
			Type:     je.Job.Type.String(),
			IS:       je.IS,
			FS:       je.FS,
			OutRows:  je.OutRows,
			InBytes:  je.InBytes,
			OutBytes: je.OutBytes,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Fault replay: TPC-H under deterministic fault injection
// ---------------------------------------------------------------------------

// FaultReplayResult compares one TPC-H replay run twice on the same
// cluster and scheduler: once clean and once under a fault plan. The
// inflation ratios quantify how much injected crashes, slowdowns and
// transient failures stretch the response-time distribution, and
// CompletionRate reports how much of the workload the recovery machinery
// (re-execution, backoff, blacklisting) carried to completion. The JSON
// names are BENCH_fault.json's; every field is deterministic in the seeds.
type FaultReplayResult struct {
	Scheduler string  `json:"scheduler"`
	Seed      uint64  `json:"seed"`
	FaultSeed uint64  `json:"fault_seed"`
	Rounds    int     `json:"rounds"`
	GapSec    float64 `json:"gap_sec"`
	Queries   int     `json:"queries"`
	// Completed and Failed partition the faulted run's queries; a failed
	// query carries a *cluster.TaskFailedError (attempt cap exhausted).
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	// CompletionRate is Completed / Queries of the faulted run.
	CompletionRate float64 `json:"completion_rate"`
	// Clean vs faulted response-time percentiles and their ratios.
	CleanP50Sec  float64 `json:"clean_p50_sec"`
	CleanP99Sec  float64 `json:"clean_p99_sec"`
	FaultP50Sec  float64 `json:"fault_p50_sec"`
	FaultP99Sec  float64 `json:"fault_p99_sec"`
	P50Inflation float64 `json:"p50_inflation"`
	P99Inflation float64 `json:"p99_inflation"`
	// Makespans of the two runs.
	CleanMakespanSec float64 `json:"clean_makespan_sec"`
	FaultMakespanSec float64 `json:"fault_makespan_sec"`
	// Faults tallies the faulted run's recovery activity. A report embeds
	// it beside the result, so its counters sit at the top level.
	Faults cluster.FaultStats `json:"-"`
}

// faultReplayGapSec is the fault replay's mean Poisson inter-arrival gap.
const faultReplayGapSec = 20

// ReproduceFaultReplay replays the canonical TPC-H queries (rounds copies
// each, default 3; Poisson arrivals 20 s apart) under SWRD on cfg.Cluster
// twice — clean, then under fp — and reports the fault run's recovery
// outcome against the clean baseline. Both runs share per-query
// cost-model seeds, so every difference is attributable to the plan. Task
// predictions are the constant baseline: the replay measures recovery,
// not scheduling quality.
func ReproduceFaultReplay(cfg ExperimentConfig, fp *fault.Plan, rounds int) (*FaultReplayResult, error) {
	pol := sched.SWRD{}
	if rounds <= 0 {
		rounds = 3
	}

	// Compile and estimate each canonical query once; arrivals come from a
	// seeded exponential clock shared by both runs.
	stats := workload.NewStats(workload.DefaultCorpusConfig())
	byName := map[string]*selectivity.QueryEstimate{}
	names := workload.TPCHNames()
	for _, name := range names {
		q, err := workload.TPCHQuery(name)
		if err != nil {
			return nil, err
		}
		d, err := plan.Compile(q)
		if err != nil {
			return nil, err
		}
		if _, byName[name], err = stats.Estimate(d, 10); err != nil {
			return nil, err
		}
	}
	rng := sim.New(cfg.Seed ^ 0xfa017)
	rp := &replay{perItemCost: true}
	clock := 0.0
	for r := 0; r < rounds; r++ {
		for _, name := range names {
			clock += -faultReplayGapSec * math.Log(1-rng.Float64())
			rp.items = append(rp.items, replayItem{
				name:    fmt.Sprintf("%s-r%d", name, r),
				est:     byName[name],
				oracle:  byName[name],
				arrival: clock,
				seed:    cfg.Seed ^ uint64(len(rp.items))*sim.Gamma,
			})
		}
	}

	clean := cfg.Cluster
	clean.Faults = nil
	cres, _, err := rp.run(clean, pol, cfg.Observer, everyItem)
	if err != nil {
		return nil, fmt.Errorf("repro: fault replay clean run: %w", err)
	}
	faulted := cfg.Cluster
	faulted.Faults = fp
	fres, _, err := rp.run(faulted, pol, cfg.Observer, everyItem)
	if err != nil {
		return nil, fmt.Errorf("repro: fault replay faulted run: %w", err)
	}

	out := &FaultReplayResult{
		Scheduler:        pol.Name(),
		Seed:             cfg.Seed,
		FaultSeed:        fp.Spec().Seed,
		Rounds:           rounds,
		GapSec:           faultReplayGapSec,
		Queries:          len(rp.items),
		Completed:        fres.Completed,
		Failed:           fres.Failed,
		CleanP50Sec:      cres.PercentileResponse(0.50),
		CleanP99Sec:      cres.PercentileResponse(0.99),
		FaultP50Sec:      fres.PercentileResponse(0.50),
		FaultP99Sec:      fres.PercentileResponse(0.99),
		CleanMakespanSec: cres.Makespan,
		FaultMakespanSec: fres.Makespan,
		Faults:           fres.Faults,
	}
	if out.Queries > 0 {
		out.CompletionRate = float64(out.Completed) / float64(out.Queries)
	}
	if out.CleanP50Sec > 0 {
		out.P50Inflation = out.FaultP50Sec / out.CleanP50Sec
	}
	if out.CleanP99Sec > 0 {
		out.P99Inflation = out.FaultP99Sec / out.CleanP99Sec
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Learning replay: error-vs-samples convergence of the online registry
// ---------------------------------------------------------------------------

// learnPointEvery is the job-sample stride between convergence points.
const learnPointEvery = 25

// LearnPoint is one error-vs-samples convergence measurement: the
// challenger's average relative error over the full job-sample stream
// after absorbing JobSamples observations.
type LearnPoint struct {
	JobSamples    int     `json:"job_samples"`
	Version       int     `json:"version"`
	ChallengerErr float64 `json:"challenger_err"`
}

// LearnReplayResult is the convergence replay's outcome. It carries no
// wall-clock fields: for a fixed config the serialised result is
// byte-identical across runs.
type LearnReplayResult struct {
	Queries     int               `json:"queries"`
	JobSamples  int               `json:"job_samples"`
	TaskSamples int               `json:"task_samples"`
	Promotions  []learn.Promotion `json:"promotions"`
	Points      []LearnPoint      `json:"points"`
	// FinalChallengerErr scores the fully-fed challenger job model over
	// the whole stream; BatchErr scores a batch FitJobModel over the
	// same samples. TestLearningReplayConverges requires them equal: the
	// learner and the batch fit are one accumulator fed one stream.
	FinalChallengerErr float64 `json:"final_challenger_err"`
	BatchErr           float64 `json:"batch_err"`
	FinalVersion       int     `json:"final_version"`
}

// avgRelJobError scores a job model over samples with the paper's
// average-relative-error metric: Table 3's "All" row.
func avgRelJobError(jm *predict.JobModel, samples []predict.JobSample) float64 {
	for _, r := range jm.JobAccuracyByOperator(samples) {
		if r.Op == "All" {
			return r.AvgError
		}
	}
	return 0
}

// ReproduceLearningReplay replays corpus through a cold model-lifecycle
// registry at its default window, warm-up and promotion margin
// (learn.Config), one completed run at a time — each run's job samples,
// then its task samples — and reports error-vs-samples convergence every
// 25 job samples, the promotion sequence, and the final challenger
// accuracy against a batch-trained baseline over the same stream.
// Everything is derived from the seeded corpus — no wall clock — so
// repeated runs produce byte-identical results. o receives the
// saqp_learn_* metrics.
func ReproduceLearningReplay(corpus *workload.Corpus, o *obs.Observer) (*LearnReplayResult, error) {
	reg := learn.NewRegistry(learn.Config{Observer: o})

	res := &LearnReplayResult{Queries: len(corpus.Runs)}
	nextPoint := learnPointEvery
	for _, run := range corpus.Runs {
		for _, s := range run.JobSamples {
			reg.ObserveJob(s.Op, s.Features, s.Seconds)
		}
		for _, s := range run.TaskSamples {
			reg.ObserveTask(s.Op, s.Reduce, s.Features, s.Seconds)
		}
		for reg.JobSamples() >= nextPoint {
			p := LearnPoint{JobSamples: nextPoint, Version: reg.Version()}
			if jm := reg.ChallengerJobModel(); jm != nil {
				p.ChallengerErr = avgRelJobError(jm, corpus.JobSamples)
			}
			res.Points = append(res.Points, p)
			nextPoint += learnPointEvery
		}
	}
	res.JobSamples = reg.JobSamples()
	res.TaskSamples = reg.TaskSamples()
	res.Promotions = reg.Promotions()
	res.FinalVersion = reg.Version()
	if jm := reg.ChallengerJobModel(); jm != nil {
		res.FinalChallengerErr = avgRelJobError(jm, corpus.JobSamples)
	}
	batch, err := predict.FitJobModel(corpus.JobSamples)
	if err != nil {
		return nil, fmt.Errorf("repro: learning replay batch baseline: %w", err)
	}
	res.BatchErr = avgRelJobError(batch, corpus.JobSamples)
	return res, nil
}
