package core

import (
	"saqp/internal/cluster"
	"saqp/internal/obs"
	"saqp/internal/plan"
	"saqp/internal/predict"
	"saqp/internal/selectivity"
	"saqp/internal/trace"
)

// planJobType shortens the operator type in predictor signatures.
type planJobType = plan.JobType

// Percolate builds a query ready for submission, attaching
// estimator-derived semantics to it:
//
//   - truth sizes the tasks and draws their hidden ground-truth durations;
//   - est drives the per-task time predictions the scheduler may consult.
//
// Task counts can differ slightly between the two estimates (they come
// from different statistics resolutions), so per-task predictions are
// rescaled by the ratio of the two estimates' TaskModel.WRD. WRD is the
// sum of the per-task predictions, so the scheduler's view equals est's
// WRD up to rounding. Without a task model every task is predicted at
// one second.
func Percolate(id string, truth, est *selectivity.QueryEstimate,
	cm *trace.CostModel, tm *predict.TaskModel) *cluster.Query {
	var pred cluster.TaskTimePredictor = cluster.ConstantPredictor(1)
	if tm != nil {
		wrdEst := tm.WRD(est)
		wrdTruth := tm.WRD(truth)
		f := 1.0
		if wrdTruth > 0 && wrdEst > 0 {
			f = wrdEst / wrdTruth
		}
		pred = scaledPredictor{tm: tm, factor: f}
	}
	return cluster.BuildQuery(id, truth, cm, pred)
}

// scaledPredictor scales a task model's predictions by a fixed factor,
// translating oracle-sized tasks into estimator-consistent totals.
type scaledPredictor struct {
	tm     *predict.TaskModel
	factor float64
}

// PredictTask implements cluster.TaskTimePredictor.
func (s scaledPredictor) PredictTask(op planJobType, reduce bool, in, out, pf float64) float64 {
	return s.factor * s.tm.PredictTask(op, reduce, in, out, pf)
}

// Capacity translates a cluster config into what the time predictor needs
// of it — per-phase slot totals and the fixed scheduling overheads — read
// from the normalised config, so a predictor is always sized for the
// cluster the simulator runs rather than for the fields a caller happened
// to set.
func Capacity(cc cluster.Config) (predict.Slots, predict.Overheads) {
	cc = cc.Normalized()
	return predict.Slots{Map: cc.Nodes * cc.MapSlotsPerNode, Reduce: cc.Nodes * cc.ReduceSlotsPerNode},
		predict.Overheads{SchedPerTaskSec: cc.SchedulingOverheadSec, JobInitSec: cc.JobInitSec}
}

// RecordJobDrift logs each finished job's Eq. 8 predicted time (from
// the estimate's features) against its simulated execution time — the
// live Tables 3–5. Percolate carries the predictions down to the
// scheduler; RecordJobDrift scores them when the jobs come back. Jobs
// that never ran (a failed query's tail) are skipped; a nil observer,
// drift recorder or model records nothing.
func RecordJobDrift(o *obs.Observer, jm *predict.JobModel, est *selectivity.QueryEstimate, cq *cluster.Query) {
	if o == nil || o.Drift == nil || jm == nil {
		return
	}
	for ji, je := range est.Jobs {
		sj := cq.Jobs[ji]
		if sj.DoneTime <= sj.SubmitTime {
			continue
		}
		o.Drift.RecordJob(je.Job.Type.String(), jm.PredictJob(je),
			sj.DoneTime-sj.SubmitTime, cq.Faulted)
	}
}
