package saqp

import (
	"fmt"
	"math"

	"saqp/internal/cluster"
	"saqp/internal/core"
	"saqp/internal/plan"
	"saqp/internal/predict"
	"saqp/internal/sched"
	"saqp/internal/selectivity"
	"saqp/internal/serve"
	"saqp/internal/sim"
	"saqp/internal/trace"
	"saqp/internal/workload"
)

// This file contains the experiment drivers that regenerate every table
// and figure of the paper's evaluation (Section 5). Each driver returns
// structured results; cmd/benchrunner and bench_test.go print them in the
// paper's row/series format.

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
	Observer *Observer
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
	ccfg := workload.DefaultCorpusConfig()
	if cfg.CorpusQueries > 0 {
		ccfg.NumQueries = cfg.CorpusQueries
	}
	if cfg.Seed != 0 {
		ccfg.Seed = cfg.Seed
	}
	ccfg.Cluster = cfg.Cluster
	corpus, err := workload.BuildCorpus(ccfg)
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

// RecordCorpusDrift replays the artifacts' training samples through an
// observer's drift recorder, scoring each with exactly the model the
// accuracy tables use, so the live drift snapshot reproduces the
// per-category mean relative error of Tables 3–5.
func RecordCorpusDrift(a *TrainedArtifacts, o *Observer) {
	if a == nil || o == nil || o.Drift == nil {
		return
	}
	for _, s := range a.Train.JobSamples {
		o.Drift.RecordJob(s.Op.String(), a.Jobs.PredictSample(s), s.Seconds, false)
	}
	for _, s := range a.Train.TaskSamples {
		o.Drift.RecordTask(s.Op.String(), s.Reduce, a.Tasks.PredictTaskSample(s), s.Seconds, false)
	}
}

// overheadsFor translates a cluster config into predictor overheads.
func overheadsFor(cc cluster.Config) predict.Overheads {
	return predict.Overheads{SchedPerTaskSec: cc.SchedulingOverheadSec, JobInitSec: cc.JobInitSec}
}

// slotsFor translates a cluster config into per-phase slot capacities.
func slotsFor(cc cluster.Config) predict.Slots {
	s := predict.Slots{Map: cc.Nodes * cc.MapSlotsPerNode, Reduce: cc.Nodes * cc.ReduceSlotsPerNode}
	if s.Map <= 0 || s.Reduce <= 0 {
		return predict.DefaultSlots()
	}
	return s
}

// ---------------------------------------------------------------------------
// Table 3 + Figure 6: job time prediction accuracy
// ---------------------------------------------------------------------------

// Table3Result is the accuracy summary of the job-time model.
type Table3Result struct {
	// TrainRows reproduces Table 3's per-operator rows (training set).
	TrainRows []GroupAccuracy
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

// ReproduceTable3 evaluates the Eq. 8 job model like the paper's Table 3.
func ReproduceTable3(a *TrainedArtifacts) Table3Result {
	res := Table3Result{TrainRows: a.Jobs.JobAccuracyByOperator(a.Train.JobSamples)}
	var sum float64
	for _, run := range a.Test.Runs {
		for ji, je := range run.Est.Jobs {
			sj := run.Sim.Jobs[ji]
			actual := sj.DoneTime - sj.SubmitTime
			if actual <= 0 {
				continue
			}
			sum += math.Abs(a.Jobs.PredictJob(je)-actual) / actual
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
			sj := run.Sim.Jobs[ji]
			actual := sj.DoneTime - sj.SubmitTime
			pts = append(pts, ScatterPoint{
				Actual:    actual,
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
func ReproduceTable4(a *TrainedArtifacts) []GroupAccuracy {
	return a.Tasks.TaskAccuracyByOperator(a.Train.TaskSamples, false)
}

// ReproduceTable5 evaluates the reduce-task model per operator (training
// set).
func ReproduceTable5(a *TrainedArtifacts) []GroupAccuracy {
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
	estCache := workload.NewCatalogCache(64)
	oraCache := workload.NewCatalogCache(1024)
	cm := defaultCostModel(cfg.Seed ^ 0x7fe)
	slots := slotsFor(cfg.Cluster)
	var res Fig7Result
	var sum float64
	for i := 0; i < numQueries; i++ {
		q, shape, err := gen.RandomQuery()
		if err != nil {
			return res, err
		}
		sf := workload.SFForTargetBytes(q, 100e9)
		run, err := workload.RunStandalone(q, shape, sf, estCache, oraCache, cm, cfg.Cluster)
		if err != nil {
			return res, err
		}
		pred := a.Tasks.PredictQuery(run.Est, slots, overheadsFor(cfg.Cluster))
		res.Points = append(res.Points, ScatterPoint{Actual: run.Seconds, Predicted: pred})
		if run.Seconds > 0 {
			sum += math.Abs(pred-run.Seconds) / run.Seconds
		}
	}
	res.AvgError = sum / float64(len(res.Points))
	return res, nil
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

// motivationSQL returns the three queries as the paper specifies them:
// QA/QC are instances of TPC-H Q14 ("evaluates the market response to a
// production promotion in one month") and QB is TPC-H Q17 — see
// workload.TPCHQuery for the canonical texts.
func motivationSQL() (qa, qb string) {
	q14, err := workload.TPCHQuery("q14")
	if err != nil {
		panic(err) // the canonical catalog is compiled-in; cannot fail
	}
	q17, err := workload.TPCHQuery("q17")
	if err != nil {
		panic(err)
	}
	return q14.String(), q17.String()
}

// ReproduceFig2 runs QA(10 GB), QB(100 GB), QC(10 GB) submitted 5 s apart
// under the named scheduler, plus each query alone, and reports response
// times and slowdowns. Under HCS the small queries' second jobs are starved
// behind QB's jobs — the thrashing of Figures 1–2.
func ReproduceFig2(scheduler string, a *TrainedArtifacts, cfg ExperimentConfig) (*MotivationResult, error) {
	pol, err := schedulerByName(scheduler)
	if err != nil {
		return nil, err
	}
	qaSQL, qbSQL := motivationSQL()
	type spec struct {
		name    string
		sql     string
		target  float64
		arrival float64
	}
	specs := []spec{
		{"QA", qaSQL, 10e9, 0},
		{"QB", qbSQL, 100e9, 5},
		{"QC", qaSQL, 10e9, 10},
	}
	fw, err := NewFramework(Options{Observer: cfg.Observer})
	if err != nil {
		return nil, err
	}
	estCache := workload.NewCatalogCache(64)
	oraCache := workload.NewCatalogCache(1024)

	build := func(cmSeed uint64, o *Observer) ([]*cluster.Query, []float64, []*selectivity.QueryEstimate, error) {
		cm := defaultCostModel(cmSeed)
		var qs []*cluster.Query
		var inputs []float64
		var ests []*selectivity.QueryEstimate
		for _, sp := range specs {
			d, err := fw.Compile(sp.sql)
			if err != nil {
				return nil, nil, nil, err
			}
			sf := workload.SFForTargetBytes(d.Query, sp.target)
			oracle, err := selectivity.NewEstimator(oraCache.Get(sf), selectivity.Config{}).EstimateQuery(d)
			if err != nil {
				return nil, nil, nil, err
			}
			est, err := selectivity.NewEstimator(estCache.Get(sf), selectivity.Config{}).EstimateQuery(d)
			if err != nil {
				return nil, nil, nil, err
			}
			cq := percolate(a, o, sp.name, oracle, est, cm)
			qs = append(qs, cq)
			inputs = append(inputs, oracle.TotalInputBytes())
			ests = append(ests, est)
		}
		return qs, inputs, ests, nil
	}

	// Concurrent run — the only one the observer instruments, so the trace
	// shows the thrashing rather than three quiet standalone runs.
	qs, inputs, ests, err := build(cfg.Seed^0x515, cfg.Observer)
	if err != nil {
		return nil, err
	}
	sim := cluster.New(cfg.Cluster, sched.Instrument(pol, cfg.Observer)).SetObserver(cfg.Observer)
	for i, q := range qs {
		sim.Submit(q, specs[i].arrival)
	}
	res, err := sim.Run()
	if err != nil {
		return nil, err
	}
	if a != nil {
		for i, q := range qs {
			serve.RecordJobDrift(cfg.Observer, a.Jobs, ests[i], q)
		}
	}

	// Alone runs (same cost-model seed → same task durations).
	alone := make([]float64, len(specs))
	for i := range specs {
		qs2, _, _, err := build(cfg.Seed^0x515, nil)
		if err != nil {
			return nil, err
		}
		s2 := cluster.New(cfg.Cluster, pol)
		s2.Submit(qs2[i], 0)
		if _, err := s2.Run(); err != nil {
			return nil, err
		}
		alone[i] = qs2[i].ResponseTime()
	}

	out := &MotivationResult{Scheduler: scheduler, Makespan: res.Makespan}
	for i, q := range qs {
		mq := MotivationQuery{
			Name:       specs[i].name,
			Response:   q.ResponseTime(),
			Alone:      alone[i],
			InputBytes: inputs[i],
		}
		if alone[i] > 0 {
			mq.Slowdown = q.ResponseTime() / alone[i]
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

// percolate attaches the artifacts' semantics-aware predictions to a
// query (cross-layer semantics percolation, internal/core). A non-nil
// observer records the estimator's IS/FS output against the oracle
// values for each job.
func percolate(a *TrainedArtifacts, o *Observer, id string, truth, est *selectivity.QueryEstimate,
	cm *trace.CostModel) *cluster.Query {
	recordEstimateDrift(o, truth, est)
	var tm *predict.TaskModel
	if a != nil {
		tm = a.Tasks
	}
	return core.Percolate(id, truth, est, cm, tm).Query
}

// recordEstimateDrift logs per-job selectivity estimates (IS/FS) against
// the oracle catalog's values, keyed by operator category.
func recordEstimateDrift(o *Observer, truth, est *selectivity.QueryEstimate) {
	if o == nil || o.Drift == nil || truth == nil || est == nil {
		return
	}
	for ji, je := range est.Jobs {
		tj := truth.Jobs[ji]
		cat := je.Job.Type.String()
		o.Drift.RecordEstimate(cat, "IS", je.IS, tj.IS)
		o.Drift.RecordEstimate(cat, "FS", je.FS, tj.FS)
	}
}

// ReproduceFig8 runs one workload mix under the three schedulers and
// reports average query response times (paper Figure 8). meanGapSec sets
// the Poisson arrival rate; the paper's clusters are heavily loaded, so the
// default (10 s) keeps many queries in flight.
func ReproduceFig8(mix string, a *TrainedArtifacts, cfg ExperimentConfig, meanGapSec float64) ([]Fig8Result, error) {
	var comp []workload.BinSpec
	switch mix {
	case "bing":
		comp = workload.BingComposition()
	case "facebook":
		comp = workload.FacebookComposition()
	default:
		return nil, fmt.Errorf("saqp: unknown workload mix %q (want bing or facebook)", mix)
	}
	if meanGapSec <= 0 {
		meanGapSec = 10
	}
	w, err := workload.BuildWorkload(mix, comp, meanGapSec, cfg.Seed^0xfb8)
	if err != nil {
		return nil, err
	}

	// Pre-compile and estimate every item once; per-scheduler runs rebuild
	// the cluster queries (task state is per-run) with identical seeds.
	type item struct {
		dag         *plan.DAG
		est, oracle *selectivity.QueryEstimate
		arrival     float64
		name        string
		bin         int
	}
	estCache := workload.NewCatalogCache(64)
	oraCache := workload.NewCatalogCache(1024)
	items := make([]item, len(w.Items))
	for i, wi := range w.Items {
		d, err := plan.Compile(wi.Query)
		if err != nil {
			return nil, err
		}
		oracle, err := selectivity.NewEstimator(oraCache.Get(wi.SF), selectivity.Config{}).EstimateQuery(d)
		if err != nil {
			return nil, err
		}
		est, err := selectivity.NewEstimator(estCache.Get(wi.SF), selectivity.Config{}).EstimateQuery(d)
		if err != nil {
			return nil, err
		}
		items[i] = item{dag: d, est: est, oracle: oracle, arrival: wi.ArrivalSec,
			name: fmt.Sprintf("%s-%03d", mix, i), bin: wi.Bin}
	}

	var out []Fig8Result
	for si, name := range []string{SchedulerHCS, SchedulerHFS, SchedulerSWRD} {
		pol, err := schedulerByName(name)
		if err != nil {
			return nil, err
		}
		cm := defaultCostModel(cfg.Seed ^ 0xc0ffee)
		sim := cluster.New(cfg.Cluster, sched.Instrument(pol, cfg.Observer)).SetObserver(cfg.Observer)
		// Estimate drift is per-query, not per-run: record it only on the
		// first scheduler pass so replays don't triple-count samples.
		po := cfg.Observer
		if si > 0 {
			po = nil
		}
		var queries []*cluster.Query
		for _, it := range items {
			cq := percolate(a, po, it.name, it.oracle, it.est, cm)
			queries = append(queries, cq)
			sim.Submit(cq, it.arrival)
		}
		res, err := sim.Run()
		if err != nil {
			return nil, fmt.Errorf("saqp: %s under %s: %w", mix, name, err)
		}
		if a != nil {
			for qi, q := range queries {
				serve.RecordJobDrift(cfg.Observer, a.Jobs, items[qi].est, q)
			}
		}
		byBin := map[int]float64{}
		binN := map[int]int{}
		for i, q := range queries {
			byBin[items[i].bin] += q.ResponseTime()
			binN[items[i].bin]++
		}
		for bin := range byBin {
			byBin[bin] /= float64(binN[bin])
		}
		out = append(out, Fig8Result{
			Workload:       mix,
			Scheduler:      name,
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
	fw, err := NewFramework(Options{ScaleFactor: 1})
	if err != nil {
		return nil, err
	}
	d, err := fw.Compile(`SELECT ps_partkey, sum(ps_supplycost*ps_availqty)
		FROM nation n JOIN supplier s ON s.s_nationkey = n.n_nationkey AND n.n_name <> 'n_name#b~~~~'
		JOIN partsupp ps ON ps.ps_suppkey = s.s_suppkey
		GROUP BY ps_partkey`)
	if err != nil {
		return nil, err
	}
	qe, err := fw.Estimate(d)
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
// (re-execution, backoff, blacklisting) carried to completion.
type FaultReplayResult struct {
	Scheduler string
	Queries   int
	// Completed and Failed partition the faulted run's queries; a failed
	// query carries a *TaskFailedError (attempt cap exhausted).
	Completed int
	Failed    int
	// CompletionRate is Completed / Queries of the faulted run.
	CompletionRate float64
	// Clean vs faulted response-time percentiles and their ratios.
	CleanP50Sec, CleanP99Sec   float64
	FaultP50Sec, FaultP99Sec   float64
	P50Inflation, P99Inflation float64
	// Makespans of the two runs.
	CleanMakespanSec, FaultMakespanSec float64
	// Faults tallies the faulted run's recovery activity.
	Faults FaultStats
}

// ReproduceFaultReplay replays the canonical TPC-H queries (rounds copies
// each, Poisson arrivals with meanGapSec) on cfg.Cluster twice — clean,
// then under fp — and reports the fault run's recovery outcome against
// the clean baseline. Both runs share per-query cost-model seeds, so
// every difference is attributable to the plan. a may be nil (constant
// task predictions); scheduler defaults to SWRD.
func ReproduceFaultReplay(a *TrainedArtifacts, cfg ExperimentConfig, fp *FaultPlan,
	scheduler string, rounds int, meanGapSec float64) (*FaultReplayResult, error) {
	if scheduler == "" {
		scheduler = SchedulerSWRD
	}
	pol, err := schedulerByName(scheduler)
	if err != nil {
		return nil, err
	}
	if rounds <= 0 {
		rounds = 3
	}
	if meanGapSec <= 0 {
		meanGapSec = 20
	}

	// Compile and estimate each canonical query once; arrivals come from a
	// seeded exponential clock shared by both runs.
	type item struct {
		est     *selectivity.QueryEstimate
		arrival float64
		name    string
		seed    uint64
	}
	cat := workload.NewCatalogCache(1024).Get(10)
	est := selectivity.NewEstimator(cat, selectivity.Config{})
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
		qe, err := est.EstimateQuery(d)
		if err != nil {
			return nil, err
		}
		byName[name] = qe
	}
	rng := sim.New(cfg.Seed ^ 0xfa017)
	var items []item
	clock := 0.0
	for r := 0; r < rounds; r++ {
		for _, name := range names {
			clock += -meanGapSec * math.Log(1-rng.Float64())
			items = append(items, item{
				est:     byName[name],
				arrival: clock,
				name:    fmt.Sprintf("%s-r%d", name, r),
				seed:    cfg.Seed ^ uint64(len(items))*0x9e3779b97f4a7c15,
			})
		}
	}

	var pred cluster.TaskTimePredictor = cluster.ConstantPredictor(1)
	if a != nil {
		pred = a.Tasks
	}
	run := func(cc cluster.Config) (*cluster.Results, error) {
		s := cluster.New(cc, sched.Instrument(pol, cfg.Observer)).SetObserver(cfg.Observer)
		for _, it := range items {
			cq := cluster.BuildQuery(it.name, it.est, defaultCostModel(it.seed), pred)
			s.Submit(cq, it.arrival)
		}
		return s.Run()
	}

	clean := cfg.Cluster
	clean.Faults = nil
	cres, err := run(clean)
	if err != nil {
		return nil, fmt.Errorf("saqp: fault replay clean run: %w", err)
	}
	faulted := cfg.Cluster
	faulted.Faults = fp
	fres, err := run(faulted)
	if err != nil {
		return nil, fmt.Errorf("saqp: fault replay faulted run: %w", err)
	}

	out := &FaultReplayResult{
		Scheduler:        scheduler,
		Queries:          len(items),
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

// LearnReplayConfig controls the online-learning convergence replay.
type LearnReplayConfig struct {
	// Queries sizes the replayed corpus. Default 120.
	Queries int
	// Seed drives corpus generation. Default 2018.
	Seed uint64
	// Window, MinSamples and PromoteMargin configure the registry; zero
	// values take the registry defaults (100, 50, 0.05).
	Window        int
	MinSamples    int
	PromoteMargin float64
	// PointEvery is the job-sample stride between convergence points.
	// Default 25.
	PointEvery int
	// Cluster sizes the simulated testbed the corpus executed on.
	Cluster cluster.Config
	// Observer receives saqp_learn_* metrics during the replay.
	Observer *Observer
}

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
	Queries     int          `json:"queries"`
	JobSamples  int          `json:"job_samples"`
	TaskSamples int          `json:"task_samples"`
	Promotions  []Promotion  `json:"promotions"`
	Points      []LearnPoint `json:"points"`
	// FinalChallengerErr scores the fully-fed challenger job model over
	// the whole stream; BatchErr scores a batch FitJobModel over the
	// same samples. TestLearningReplayConverges requires the former
	// within 10% of the latter (RLS through the shared solve path makes
	// them equal up to per-operator fallback differences).
	FinalChallengerErr float64 `json:"final_challenger_err"`
	BatchErr           float64 `json:"batch_err"`
	FinalVersion       int     `json:"final_version"`
}

// avgRelJobError scores a job model over samples with the paper's
// average-relative-error metric.
func avgRelJobError(jm *predict.JobModel, samples []predict.JobSample) float64 {
	var sum float64
	var n int
	for _, s := range samples {
		if s.Seconds <= 0 {
			continue
		}
		sum += math.Abs(jm.PredictSample(s)-s.Seconds) / s.Seconds
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ReproduceLearningReplay replays a generated corpus through a cold
// model-lifecycle registry, one completed run at a time, and reports
// error-vs-samples convergence, the promotion sequence, and the final
// challenger accuracy against a batch-trained baseline over the same
// stream. Everything is derived from the seeded corpus — no wall clock
// — so repeated runs produce byte-identical results.
func ReproduceLearningReplay(cfg LearnReplayConfig) (*LearnReplayResult, error) {
	if cfg.Queries <= 0 {
		cfg.Queries = 120
	}
	if cfg.Seed == 0 {
		cfg.Seed = 2018
	}
	if cfg.PointEvery <= 0 {
		cfg.PointEvery = 25
	}
	ccfg := workload.DefaultCorpusConfig()
	ccfg.NumQueries = cfg.Queries
	ccfg.Seed = cfg.Seed
	if cfg.Cluster.Nodes > 0 {
		ccfg.Cluster = cfg.Cluster
	}
	corpus, err := workload.BuildCorpus(ccfg)
	if err != nil {
		return nil, err
	}
	reg := NewLearnerRegistry(LearnerConfig{
		Window:        cfg.Window,
		MinSamples:    cfg.MinSamples,
		PromoteMargin: cfg.PromoteMargin,
		Observer:      cfg.Observer,
	})

	res := &LearnReplayResult{Queries: len(corpus.Runs)}
	nextPoint := cfg.PointEvery
	for _, run := range corpus.Runs {
		feedRunIntoLearner(reg, run)
		for reg.JobSamples() >= nextPoint {
			p := LearnPoint{JobSamples: nextPoint, Version: reg.Version()}
			if jm := reg.ChallengerJobModel(); jm != nil {
				p.ChallengerErr = avgRelJobError(jm, corpus.JobSamples)
			}
			res.Points = append(res.Points, p)
			nextPoint += cfg.PointEvery
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
		return nil, fmt.Errorf("saqp: learning replay batch baseline: %w", err)
	}
	res.BatchErr = avgRelJobError(batch, corpus.JobSamples)
	return res, nil
}

// feedRunIntoLearner feeds one completed corpus run into the registry
// the same way the offline corpus collects samples: the observed job
// time with oracle (log-derived) features, plus a bounded number of
// task observations per group.
func feedRunIntoLearner(reg *Learner, run *workload.QueryRun) {
	const perPhase = 16
	for ji, je := range run.Oracle.Jobs {
		sj := run.Sim.Jobs[ji]
		if sec := sj.DoneTime - sj.SubmitTime; sec > 0 {
			reg.ObserveJob(je.Job.Type, predict.JobFeatures(je), sec)
		}
		op, pf := je.Job.Type, je.PFactor()
		sj.EachSample(je, perPhase, func(g selectivity.TaskGroup, tk *cluster.Task) {
			reg.ObserveTask(op, tk.Reduce, predict.TaskFeatures(op, g.InBytes, g.OutBytes, pf), tk.ActualSec)
		})
	}
}
