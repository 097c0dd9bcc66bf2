package obs

import (
	"encoding/json"
	"sort"
	"sync"
)

// DriftRecorder accumulates predicted-versus-observed error per job
// category (Extract/Groupby/Join) — the live equivalent of the paper's
// Tables 3–5 accuracy summaries. Three sample families are tracked:
//
//   - job execution time: Eq. 8 prediction vs simulated job time,
//   - task execution time: Eq. 9 prediction vs simulated task time, and
//   - selectivity estimates: IS/FS estimator output vs oracle values.
//
// Every family keeps, per category, running sums for mean relative error
// and R², plus a fixed-bucket histogram of relative errors, so the tail
// of the error distribution is visible — the point Wu et al. make about
// point predictions being useless without their error distribution.
type DriftRecorder struct {
	mu        sync.Mutex
	jobs      map[string]*driftAgg
	tasks     map[string]*driftAgg
	estimates map[string]*driftAgg
}

// driftAgg is one category's running accuracy state.
type driftAgg struct {
	n          int
	sumPred    float64
	sumActual  float64
	sumActual2 float64 // Σ actual², for R²
	ssRes      float64 // Σ (actual-pred)²
	relSum     float64 // Σ |actual-pred|/actual over actual > 0
	relN       int
	hist       hist
}

// NewDriftRecorder returns an empty recorder.
func NewDriftRecorder() *DriftRecorder {
	return &DriftRecorder{
		jobs:      map[string]*driftAgg{},
		tasks:     map[string]*driftAgg{},
		estimates: map[string]*driftAgg{},
	}
}

func getAgg(m map[string]*driftAgg, key string) *driftAgg {
	if a, ok := m[key]; ok {
		return a
	}
	a := &driftAgg{hist: newHist(errorBuckets)}
	m[key] = a
	return a
}

func (a *driftAgg) record(pred, actual float64) {
	a.n++
	a.sumPred += pred
	a.sumActual += actual
	a.sumActual2 += actual * actual
	d := actual - pred
	a.ssRes += d * d
	if actual > 0 {
		rel := d / actual
		if rel < 0 {
			rel = -rel
		}
		a.relSum += rel
		a.relN++
		a.hist.observe(rel)
	}
}

// RecordJob adds one job-level (predicted, simulated) seconds pair under
// the operator category ("Extract", "Groupby", "Join"). Samples from
// fault-perturbed runs are kept in a separate "<category>/faulted" bucket:
// the models are fit on clean runs, so mixing faulted samples in would
// hide exactly the drift fault injection exists to measure.
func (d *DriftRecorder) RecordJob(category string, predSec, actualSec float64, faulted bool) {
	if d == nil {
		return
	}
	if faulted {
		category += "/faulted"
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	getAgg(d.jobs, category).record(predSec, actualSec)
}

// RecordTask adds one task-level pair; map and reduce phases are
// distinct categories ("Join/map", "Join/reduce", ...), and samples from
// fault-perturbed tasks land in "<category>/<phase>/faulted" buckets.
func (d *DriftRecorder) RecordTask(category string, reduce bool, predSec, actualSec float64, faulted bool) {
	if d == nil {
		return
	}
	key := category + "/map"
	if reduce {
		key = category + "/reduce"
	}
	if faulted {
		key += "/faulted"
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	getAgg(d.tasks, key).record(predSec, actualSec)
}

// RecordEstimate adds one selectivity-estimate pair, keyed by category
// and quantity, e.g. ("Join", "IS") or ("Groupby", "FS").
func (d *DriftRecorder) RecordEstimate(category, quantity string, estimated, actual float64) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	getAgg(d.estimates, category+"/"+quantity).record(estimated, actual)
}

// DriftSummary is one category's accuracy roll-up — one row of a paper
// table. MeanRelError is Σ|actual-pred|/actual over samples with a
// positive actual (the paper's "Avg Error"); RSquared uses the running
// Σactual² identity, so it can differ from a two-pass computation in the
// last few ULPs.
type DriftSummary struct {
	Category      string            `json:"category"`
	N             int               `json:"n"`
	MeanRelError  float64           `json:"mean_rel_error"`
	RSquared      float64           `json:"r_squared"`
	MeanPredicted float64           `json:"mean_predicted"`
	MeanActual    float64           `json:"mean_actual"`
	Errors        HistogramSnapshot `json:"rel_error_histogram"`
}

// DriftSnapshot is the recorder's full state, categories sorted.
type DriftSnapshot struct {
	Jobs      []DriftSummary `json:"jobs"`
	Tasks     []DriftSummary `json:"tasks"`
	Estimates []DriftSummary `json:"estimates"`
}

func (a *driftAgg) summary(category string) DriftSummary {
	s := DriftSummary{Category: category, N: a.n, Errors: a.hist.snapshot()}
	if a.n == 0 {
		return s
	}
	s.MeanPredicted = a.sumPred / float64(a.n)
	s.MeanActual = a.sumActual / float64(a.n)
	if a.relN > 0 {
		s.MeanRelError = a.relSum / float64(a.relN)
	}
	ssTot := a.sumActual2 - float64(a.n)*s.MeanActual*s.MeanActual
	if ssTot > 0 {
		s.RSquared = 1 - a.ssRes/ssTot
	} else if a.ssRes == 0 {
		s.RSquared = 1
	}
	return s
}

// sortedKeys returns the map's keys in ascending order.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func summarizeAggs(m map[string]*driftAgg) []DriftSummary {
	out := make([]DriftSummary, 0, len(m))
	for _, key := range sortedKeys(m) {
		out = append(out, m[key].summary(key))
	}
	return out
}

// Snapshot rolls up every category, sorted by name.
func (d *DriftRecorder) Snapshot() DriftSnapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DriftSnapshot{
		Jobs:      summarizeAggs(d.jobs),
		Tasks:     summarizeAggs(d.tasks),
		Estimates: summarizeAggs(d.estimates),
	}
}

// SnapshotJSON serialises the snapshot as deterministic JSON.
func (d *DriftRecorder) SnapshotJSON() ([]byte, error) {
	return json.MarshalIndent(d.Snapshot(), "", "  ")
}
