package predict

import (
	"fmt"
	"math"

	"saqp/internal/core/floats"
	"saqp/internal/plan"
	"saqp/internal/selectivity"
)

// opIndicator is the paper's operator feature O: 1 for Join, 0 otherwise
// (Table 1).
//
//saqp:hotpath
func opIndicator(op plan.JobType) float64 {
	if op == plan.Join {
		return 1
	}
	return 0
}

// JobFeatures builds the Eq. 8 feature vector from a job's estimated data
// flow: [D_in, D_med, D_out, O·P(1−P)·D_med].
func JobFeatures(je *selectivity.JobEstimate) []float64 {
	return AppendJobFeatures(make([]float64, 0, 4), je)
}

// AppendJobFeatures appends JobFeatures(je) to dst.
func AppendJobFeatures(dst []float64, je *selectivity.JobEstimate) []float64 {
	o := opIndicator(je.Job.Type)
	return append(dst, je.InBytes, je.MedBytes, je.OutBytes, o*je.PFactor()*je.MedBytes)
}

// TaskFeatures builds the Eq. 9 feature vector for one task:
// [TD_in, TD_out, O·P(1−P)·TD_in].
func TaskFeatures(op plan.JobType, inBytes, outBytes, pFactor float64) []float64 {
	return AppendTaskFeatures(make([]float64, 0, 3), op, inBytes, outBytes, pFactor)
}

// AppendTaskFeatures appends TaskFeatures(op, …) to dst.
func AppendTaskFeatures(dst []float64, op plan.JobType, inBytes, outBytes, pFactor float64) []float64 {
	o := opIndicator(op)
	return append(dst, inBytes, outBytes, o*pFactor*inBytes)
}

// JobSample is one observed (job, execution time) pair for training.
type JobSample struct {
	Op       plan.JobType
	Features []float64
	Seconds  float64
}

// TaskSample is one observed (task, execution time) pair for training.
type TaskSample struct {
	Op       plan.JobType
	Reduce   bool
	Features []float64
	Seconds  float64
}

// Family is one regression target's fitted models: the paper "include[s]
// the operator type as part of our generalized multivariate model";
// realising that as full operator interaction terms is equivalent to
// per-operator coefficient vectors, which is how a family is stored.
// Pooled is the operator-agnostic fit, serving operators unseen (or seen
// too rarely to identify a model) in training.
type Family struct {
	Pooled *Model
	PerOp  map[plan.JobType]*Model
}

// For returns the operator's model, or the pooled fallback.
//
//saqp:hotpath
func (f *Family) For(op plan.JobType) *Model {
	if m, ok := f.PerOp[op]; ok {
		return m
	}
	return f.Pooled
}

// FamilyFit is the one family accumulator: it holds one regression
// target's normal equations, pooled plus one per operator seen so far,
// relative-weighted so the fit is as accurate on the many small jobs as
// on the few huge ones. The batch fitters Add every sample and Solve
// once; the online registry (internal/learn) Adds as feedback arrives and
// Solves where something reads the answer, so batch ≡ online is this
// type's definition rather than a property of two. The zero value is an
// empty accumulator; it is not goroutine-safe.
type FamilyFit struct {
	pooled Normal // the operator-agnostic accumulator
	perOp  map[plan.JobType]*Normal
}

// Add feeds one sample to the pooled accumulator, then to its
// operator's. A sample of the wrong width is rejected by the pooled
// accumulator before the operator's sees it.
func (ff *FamilyFit) Add(op plan.JobType, features []float64, sec float64) error {
	w := RelativeWeight(sec)
	if err := ff.pooled.Add(features, sec, w); err != nil {
		return err
	}
	a := ff.perOp[op]
	if a == nil {
		if ff.perOp == nil {
			ff.perOp = map[plan.JobType]*Normal{}
		}
		a = &Normal{}
		ff.perOp[op] = a
	}
	return a.Add(features, sec, w)
}

// Solve fits the pooled model (required) and every operator with enough
// samples to identify one; the rest fall back to the pooled fit. Like
// Normal.Solve it does not consume the accumulator, and the models it
// returns are replaced, never mutated, by later Adds.
func (ff *FamilyFit) Solve() (Family, error) {
	pooled, err := ff.pooled.Solve()
	if err != nil {
		return Family{}, err
	}
	f := Family{Pooled: pooled, PerOp: map[plan.JobType]*Model{}}
	for op, a := range ff.perOp {
		if m, err := a.Solve(); err == nil {
			f.PerOp[op] = m
		}
	}
	return f, nil
}

// PredictSample returns what JobModel.PredictSample on Solve's family
// would, and ok false exactly when Solve would fail, without building
// the family or allocating: only the pooled and the operator's
// accumulators are solved, each in its scratch, at most once per Add.
func (ff *FamilyFit) PredictSample(op plan.JobType, features []float64) (float64, bool) {
	theta, err := ff.pooled.solution()
	if err != nil {
		return 0, false
	}
	if a := ff.perOp[op]; a != nil {
		if t, err := a.solution(); err == nil {
			theta = t
		}
	}
	m := Model{Theta: theta}
	return math.Max(0, m.Predict(features)), true
}

// JobModel is the fitted Eq. 8 job execution-time model: one family.
type JobModel struct {
	Family
}

// FitJobModel trains Eq. 8 over the job corpus.
func FitJobModel(samples []JobSample) (*JobModel, error) {
	var ff FamilyFit
	for _, s := range samples {
		if err := ff.Add(s.Op, s.Features, s.Seconds); err != nil {
			return nil, fmt.Errorf("predict: job model: %w", err)
		}
	}
	f, err := ff.Solve()
	if err != nil {
		return nil, fmt.Errorf("predict: job model: %w", err)
	}
	return &JobModel{f}, nil
}

// PredictSample scores one (operator, features) pair with the model its
// operator dispatches to. This is the one place a job prediction is
// clamped non-negative; PredictJob, the accuracy tables, corpus drift and
// the registry's error windows all score through it.
func (jm *JobModel) PredictSample(s JobSample) float64 {
	return math.Max(0, jm.For(s.Op).Predict(s.Features))
}

// PredictJob returns the predicted execution time for a job estimate.
func (jm *JobModel) PredictJob(je *selectivity.JobEstimate) float64 {
	return jm.PredictSample(JobSample{Op: je.Job.Type, Features: JobFeatures(je)})
}

// TaskModel is the fitted Eq. 9 task-time model. Following Section 4.2
// ("based on the task type, the operator type, job scale, the per-task
// input size and output size"), it is one family per phase.
type TaskModel struct {
	Map, Reduce Family
}

// phase returns the family serving a task phase.
//
//saqp:hotpath
func (tm *TaskModel) phase(reduce bool) *Family {
	if reduce {
		return &tm.Reduce
	}
	return &tm.Map
}

// FitTaskModel trains the Eq. 9 models over the task corpus.
func FitTaskModel(samples []TaskSample) (*TaskModel, error) {
	var maps, reds FamilyFit
	for _, s := range samples {
		ff := &maps
		if s.Reduce {
			ff = &reds
		}
		if err := ff.Add(s.Op, s.Features, s.Seconds); err != nil {
			return nil, fmt.Errorf("predict: task model: %w", err)
		}
	}
	var tm TaskModel
	var err error
	if tm.Map, err = maps.Solve(); err != nil {
		return nil, fmt.Errorf("predict: map task model: %w", err)
	}
	if tm.Reduce, err = reds.Solve(); err != nil {
		return nil, fmt.Errorf("predict: reduce task model: %w", err)
	}
	return &tm, nil
}

// PredictTaskSample scores one task sample with the model its (phase,
// operator) class dispatches to. This is the one place a task prediction
// is floored: tasks never finish instantly, JVM startup floors them.
func (tm *TaskModel) PredictTaskSample(s TaskSample) float64 {
	v := tm.phase(s.Reduce).For(s.Op).Predict(s.Features)
	if v < 0.1 {
		v = 0.1
	}
	return v
}

// PredictTask implements cluster.TaskTimePredictor: predicted seconds for
// one task from its semantics-derived features.
func (tm *TaskModel) PredictTask(op plan.JobType, reduce bool, inBytes, outBytes, pFactor float64) float64 {
	return tm.PredictTaskSample(TaskSample{Op: op, Reduce: reduce, Features: TaskFeatures(op, inBytes, outBytes, pFactor)})
}

// Overheads carries the fixed cluster costs the task-composition predictor
// adds on top of task work: per-task dispatch latency and per-job
// initialisation (Section 4.3: "... plus scheduling overheads").
type Overheads struct {
	SchedPerTaskSec float64
	JobInitSec      float64
}

// Slots carries the per-phase slot capacities of the target cluster
// (Hadoop-1 task trackers partition containers into map and reduce slots).
type Slots struct {
	Map, Reduce int
}

// groupTimes prices each task group of je once with Eq. 9 and returns
// Σ count·t over the map groups, Σ count·t over the reduce groups, and
// the hottest reduce time: every Eq. 9 figure a job's predictions read.
func (tm *TaskModel) groupTimes(je *selectivity.JobEstimate) (maps, reds, hot float64) {
	pf := je.PFactor()
	for _, g := range je.MapGroups {
		maps += float64(g.Count) * tm.PredictTask(je.Job.Type, false, g.InBytes, g.OutBytes, pf)
	}
	for _, g := range je.ReduceGroups {
		t := tm.PredictTask(je.Job.Type, true, g.InBytes, g.OutBytes, pf)
		if t > hot {
			hot = t
		}
		reds += t * float64(g.Count)
	}
	return maps, reds, hot
}

// PredictQuery approximates a whole query's execution time as the sum of
// task-model job times along the DAG's critical path (Section 5.4): a plan
// is a chain, so every job's time, a negative one counted as zero. A job's
// time is the way Section 4.2/4.3 scales to jobs beyond the training
// range: wave count × per-task time per phase, plus scheduling overheads.
func (tm *TaskModel) PredictQuery(qe *selectivity.QueryEstimate, slots Slots, ov Overheads) float64 {
	if slots.Map < 1 {
		slots.Map = 1
	}
	if slots.Reduce < 1 {
		slots.Reduce = 1
	}
	var sum float64
	for _, je := range qe.Jobs {
		maps, reds, hot := tm.groupTimes(je)
		// Per-map time: the task-count-weighted mean over the job's map
		// groups (the two sides of a join have different per-task volumes).
		waves := math.Ceil(float64(je.NumMaps) / float64(slots.Map))
		c := ov.JobInitSec + waves*(maps/float64(je.NumMaps)+ov.SchedPerTaskSec)
		if nr := je.NumReduces; nr > 0 {
			// The reduce phase finishes when its slowest (hottest-partition)
			// task does: waves of the typical task plus the hot remainder.
			typ := reds / float64(nr)
			rWaves := math.Ceil(float64(nr) / float64(slots.Reduce))
			c += rWaves*(typ+ov.SchedPerTaskSec) + math.Max(0, hot-typ)
		}
		if c > 0 {
			sum += c
		}
	}
	return sum
}

// WRD computes a query's Weighted Resource Demand (Eq. 10) from the task
// models: Σ_jobs MT_i·N_Mi + RT_i·N_Ri, each phase's product summed as
// count × Eq. 9's time over its task groups. That is, up to rounding, the
// sum of the per-task predictions cluster.Query.Rebuild lays out (the
// RemainingWRD SWRD ranks by), hot reduce groups included.
func (tm *TaskModel) WRD(qe *selectivity.QueryEstimate) float64 {
	var total float64
	for _, je := range qe.Jobs {
		maps, reds, _ := tm.groupTimes(je)
		total += maps + reds
	}
	return total
}

// GroupAccuracy reports R² and average relative error per operator group —
// the rows of Tables 3, 4 and 5.
type GroupAccuracy struct {
	Op       string
	N        int
	RSquared float64
	AvgError float64
}

// JobAccuracyByOperator evaluates a job model per operator type plus an
// overall row, reproducing Table 3's structure.
func (jm *JobModel) JobAccuracyByOperator(samples []JobSample) []GroupAccuracy {
	ps := make([]predActual, len(samples))
	for i, s := range samples {
		ps[i] = predActual{s.Op, jm.PredictSample(s), s.Seconds}
	}
	return accuracyByOperator(ps, []plan.JobType{plan.Groupby, plan.Join, plan.Extract}, "All")
}

// TaskAccuracyByOperator evaluates one phase's task model per operator
// type plus a "Together" row, reproducing Tables 4 and 5.
func (tm *TaskModel) TaskAccuracyByOperator(samples []TaskSample, reduce bool) []GroupAccuracy {
	var ps []predActual
	for _, s := range samples {
		if s.Reduce == reduce {
			ps = append(ps, predActual{s.Op, tm.PredictTaskSample(s), s.Seconds})
		}
	}
	return accuracyByOperator(ps, []plan.JobType{plan.Join, plan.Groupby, plan.Extract}, "Together")
}

// predActual pairs a prediction with its observation and operator.
type predActual struct {
	op           plan.JobType
	pred, actual float64
}

// accuracyByOperator is the one accuracy table: a row per operator that
// scored at least one sample, in the given order, then the named total.
func accuracyByOperator(ps []predActual, order []plan.JobType, total string) []GroupAccuracy {
	byOp := map[plan.JobType][]predActual{}
	for _, p := range ps {
		byOp[p.op] = append(byOp[p.op], p)
	}
	var out []GroupAccuracy
	for _, op := range order {
		if g := byOp[op]; len(g) > 0 {
			out = append(out, summarize(op.String(), g))
		}
	}
	if len(ps) > 0 {
		out = append(out, summarize(total, ps))
	}
	return out
}

// summarize computes the Table 3/4/5 metrics for one group — the one R²
// and average-relative-error implementation in this package. Constant
// targets score R² 1 for an exact fit and 0 otherwise; an empty group
// scores zeros.
func summarize(name string, ps []predActual) GroupAccuracy {
	if len(ps) == 0 {
		return GroupAccuracy{Op: name}
	}
	var mean float64
	for _, p := range ps {
		mean += p.actual
	}
	mean /= float64(len(ps))
	var ssRes, ssTot, relSum float64
	rel := 0
	for _, p := range ps {
		d := p.actual - p.pred
		ssRes += d * d
		t := p.actual - mean
		ssTot += t * t
		if p.actual > 0 {
			relSum += math.Abs(d) / p.actual
			rel++
		}
	}
	r2 := 0.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	} else if floats.ApproxEqual(ssRes, 0, 1e-12) {
		r2 = 1
	}
	avg := 0.0
	if rel > 0 {
		avg = relSum / float64(rel)
	}
	return GroupAccuracy{Op: name, N: len(ps), RSquared: r2, AvgError: avg}
}
