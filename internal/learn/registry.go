package learn

import (
	"errors"
	"math"
	"sync"

	"saqp/internal/obs"
	"saqp/internal/plan"
	"saqp/internal/predict"
)

// Config assembles a Registry. The zero value is usable: a cold
// registry with the default window, minimum-sample floor and promotion
// margin, no seed champion, and no instrumentation.
type Config struct {
	// Window is the size of the trailing per-job relative-error windows
	// the promotion rule compares. Default 100.
	Window int
	// MinSamples is how many job samples a cold registry (no champion)
	// must absorb before it bootstraps the first champion. Default 50.
	MinSamples int
	// PromoteMargin is the relative improvement the challenger's full
	// error window must show over the champion's before promotion:
	// challenger < champion·(1−margin). Default 0.05.
	PromoteMargin float64
	// Observer receives saqp_learn_* metrics and promotion trace
	// instants; nil disables instrumentation.
	Observer *obs.Observer
	// Champion and ChampionTasks, when both non-nil, seed the registry
	// with a batch-trained serving champion at version 1; otherwise the
	// registry starts cold and bootstraps its first champion from
	// feedback once MinSamples have arrived.
	Champion      *predict.JobModel
	ChampionTasks *predict.TaskModel
}

// Promotion records one champion replacement. ChampionErr is −1 for the
// cold-start bootstrap, where no champion existed to compare against.
type Promotion struct {
	Version       int     `json:"version"`
	AtJobSamples  int     `json:"at_job_samples"`
	ChampionErr   float64 `json:"champion_err"`
	ChallengerErr float64 `json:"challenger_err"`
}

// Source is the model-lifecycle seam the serving engine consumes: the
// champion to serve from and a feedback sink for observed job and task
// times. *Registry is its one implementation outside tests; the seam
// lets a test hand the engine a champion that changes on every read.
type Source interface {
	// Champion returns the serving champion as one consistent snapshot:
	// its version and its frozen job and task models (nil while cold).
	// A decision that needs more than one of the three takes them from
	// one call, never from two.
	Champion() (version int, jm *predict.JobModel, tm *predict.TaskModel)
	// ObserveJob feeds one completed job's observed execution time;
	// features is valid only for the call (the caller reuses it).
	ObserveJob(op plan.JobType, features []float64, observedSec float64)
	// ObserveTask feeds one completed task's observed execution time;
	// features is valid only for the call.
	ObserveTask(op plan.JobType, reduce bool, features []float64, observedSec float64)
}

var _ Source = (*Registry)(nil)

// Registry is the versioned model store with champion/challenger
// semantics. The champion — a frozen JobModel/TaskModel pair — serves
// predictions; the challenger — three predict.FamilyFit accumulators,
// the batch fitters' own — absorbs every observed job and task sample;
// when the challenger's windowed average relative error beats the
// champion's by the configured margin, the registry atomically promotes
// the challenger and bumps the version.
//
// Every decision depends only on sample counts and error windows, never
// on the wall clock, so identical feedback streams produce identical
// promotion sequences. All methods are goroutine-safe.
type Registry struct {
	mu  sync.Mutex
	cfg Config

	version   int
	champJob  *predict.JobModel
	champTask *predict.TaskModel

	// The challenger: one family accumulator per regression target.
	job, maps, reds predict.FamilyFit

	jobSamples  int
	taskSamples int

	champWin *window
	challWin *window

	promotions []Promotion
}

// WithDefaults returns cfg with every unset knob at its default: the
// configuration a registry built from cfg actually runs with.
func (cfg Config) WithDefaults() Config {
	if cfg.Window <= 0 {
		cfg.Window = 100
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 50
	}
	if cfg.PromoteMargin <= 0 {
		cfg.PromoteMargin = 0.05
	}
	return cfg
}

// NewRegistry builds a registry from cfg, applying defaults for
// unset fields.
func NewRegistry(cfg Config) *Registry {
	cfg = cfg.WithDefaults()
	r := &Registry{
		cfg:      cfg,
		champWin: newWindow(cfg.Window),
		challWin: newWindow(cfg.Window),
	}
	if cfg.Champion != nil && cfg.ChampionTasks != nil {
		r.champJob, r.champTask = cfg.Champion, cfg.ChampionTasks
		r.version = 1
	}
	return r
}

// ObserveJob feeds one completed job's observed execution time into the
// registry: both error windows advance (the challenger is scored
// prequentially and in place, before absorbing the sample), the
// challenger absorbs it, and the promotion rule is evaluated.
// Non-positive times are ignored; non-finite samples are dropped whole.
func (r *Registry) ObserveJob(op plan.JobType, features []float64, observedSec float64) {
	if r == nil || observedSec <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var champPred float64
	if r.champJob != nil {
		champPred = r.champJob.PredictSample(predict.JobSample{Op: op, Features: features})
	}
	challPred, chall := r.job.PredictSample(op, features)
	// A sample of the wrong width still counts and advances the windows;
	// it is only not absorbed.
	if err := r.job.Add(op, features, observedSec); errors.Is(err, predict.ErrNonFinite) {
		return
	}
	if r.champJob != nil {
		r.champWin.push(math.Abs(champPred-observedSec) / observedSec)
	}
	if chall {
		r.challWin.push(math.Abs(challPred-observedSec) / observedSec)
	}
	r.jobSamples++
	o := r.cfg.Observer
	o.Count(obs.MLearnJobSamples)
	if e := r.champWin.meanOrNeg(); e >= 0 { // an empty window leaves its gauge unset
		o.Set(obs.MLearnChampionErr, e)
	}
	if e := r.challWin.meanOrNeg(); e >= 0 {
		o.Set(obs.MLearnChallengerErr, e)
	}
	r.maybePromoteLocked()
}

// ObserveTask feeds one completed task's observed time into the
// challenger's task accumulators — two rank-1 updates and no solve: task
// samples refine the TaskModel the next promotion installs (WRD ranking,
// per-task predictions) but do not drive the promotion rule, which
// compares job-level error. Non-positive times, and samples the
// accumulators refuse (wrong width, non-finite), are ignored.
func (r *Registry) ObserveTask(op plan.JobType, reduce bool, features []float64, observedSec float64) {
	if r == nil || observedSec <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ff := &r.maps
	if reduce {
		ff = &r.reds
	}
	if ff.Add(op, features, observedSec) != nil {
		return
	}
	r.taskSamples++
	r.cfg.Observer.Count(obs.MLearnTaskSamples)
}

// maybePromoteLocked applies the promotion rule: a cold registry
// bootstraps its first champion once MinSamples job samples have
// arrived; afterwards the challenger must fill both error windows and
// beat the champion's windowed mean by PromoteMargin.
func (r *Registry) maybePromoteLocked() {
	if r.champJob == nil {
		if r.jobSamples < r.cfg.MinSamples {
			return
		}
		r.promoteLocked(-1, r.challWin.meanOrNeg())
		return
	}
	if !r.champWin.full() || !r.challWin.full() {
		return
	}
	champ, chall := r.champWin.mean(), r.challWin.mean()
	if chall < champ*(1-r.cfg.PromoteMargin) {
		r.promoteLocked(champ, chall)
	}
}

// promoteLocked replaces the champion with the challenger's current
// solution: the version bumps, the promotion is recorded, and both
// error windows reset so the next comparison starts fresh. A
// challenger whose job model cannot be solved yet never promotes; a
// challenger without solvable task accumulators carries the champion's
// TaskModel forward.
func (r *Registry) promoteLocked(champErr, challErr float64) {
	jm := r.challengerJobLocked()
	if jm == nil {
		return
	}
	r.champJob, r.champTask = jm, r.challengerTaskLocked()
	r.version++
	r.promotions = append(r.promotions, Promotion{
		Version:       r.version,
		AtJobSamples:  r.jobSamples,
		ChampionErr:   champErr,
		ChallengerErr: challErr,
	})
	r.champWin.reset()
	r.challWin.reset()
	r.cfg.Observer.LearnPromotion(r.version, r.jobSamples, champErr, challErr)
}

// challengerJobLocked assembles the challenger's JobModel, nil while the
// pooled job accumulator is underdetermined.
func (r *Registry) challengerJobLocked() *predict.JobModel {
	f, err := r.job.Solve()
	if err != nil {
		return nil
	}
	return &predict.JobModel{Family: f}
}

// challengerTaskLocked assembles the challenger's TaskModel, falling
// back to the current champion's when either phase-pooled accumulator is
// still underdetermined (the promoted JobModel can lead the TaskModel
// early in a cold start).
func (r *Registry) challengerTaskLocked() *predict.TaskModel {
	mf, merr := r.maps.Solve()
	rf, rerr := r.reds.Solve()
	if merr != nil || rerr != nil {
		return r.champTask
	}
	return &predict.TaskModel{Map: mf, Reduce: rf}
}

// Champion returns the serving champion — version, job model, task
// model — under a single lock acquisition, so the engine never observes
// a version from one promotion paired with models from another. The
// models are frozen and must not be mutated.
func (r *Registry) Champion() (version int, jm *predict.JobModel, tm *predict.TaskModel) {
	if r == nil {
		return 0, nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.version, r.champJob, r.champTask
}

// Version returns the champion's version: 0 while cold, 1 for a seeded
// or bootstrapped champion, +1 per promotion since.
func (r *Registry) Version() int {
	v, _, _ := r.Champion()
	return v
}

// ChallengerJobModel assembles the challenger's current job model, or
// nil while it is underdetermined. Useful for scoring convergence
// against a batch baseline without forcing a promotion.
func (r *Registry) ChallengerJobModel() *predict.JobModel {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.challengerJobLocked()
}

// JobSamples returns how many job observations the registry absorbed.
func (r *Registry) JobSamples() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.jobSamples
}

// TaskSamples returns how many task observations the registry absorbed.
func (r *Registry) TaskSamples() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.taskSamples
}

// Promotions returns a copy of the promotion history in order.
func (r *Registry) Promotions() []Promotion {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Promotion{}, r.promotions...)
}

// window is a fixed-capacity ring of relative errors. The mean is
// recomputed over the buffer on demand — O(W) with W ≤ a few hundred —
// so the value depends only on the window's contents, never on the
// incremental order a running sum would accumulate rounding from.
type window struct {
	buf  []float64
	next int
}

func newWindow(n int) *window { return &window{buf: make([]float64, 0, n)} }

func (w *window) push(v float64) {
	if len(w.buf) < cap(w.buf) {
		w.buf = append(w.buf, v)
		return
	}
	w.buf[w.next] = v
	w.next = (w.next + 1) % len(w.buf)
}

func (w *window) full() bool { return len(w.buf) == cap(w.buf) }

func (w *window) mean() float64 {
	if len(w.buf) == 0 {
		return 0
	}
	var s float64
	for _, v := range w.buf {
		s += v
	}
	return s / float64(len(w.buf))
}

// meanOrNeg returns the mean, or −1 for an empty window (gauge "unset").
func (w *window) meanOrNeg() float64 {
	if len(w.buf) == 0 {
		return -1
	}
	return w.mean()
}

func (w *window) reset() {
	w.buf = w.buf[:0]
	w.next = 0
}
