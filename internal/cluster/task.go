package cluster

import (
	"fmt"
	"math"
	"strings"
	"unsafe"

	"saqp/internal/plan"
	"saqp/internal/selectivity"
	"saqp/internal/trace"
)

// TaskState tracks a task through its lifecycle.
type TaskState uint8

const (
	// TaskPending tasks await a container.
	TaskPending TaskState = iota
	// TaskRunning tasks occupy a container.
	TaskRunning
	// TaskDone tasks have finished.
	TaskDone
	// TaskWaiting tasks failed transiently and sit out a deterministic
	// backoff before re-entering the pending queue.
	TaskWaiting
)

// Task is one map or reduce task. A query's tasks are one slab
// (Query.Rebuild), so the fields are laid out pointer, floats, ints, then
// the one-byte flags, with the simulator's own counters as int32s: Task must
// not grow (see TestTaskSizePinned).
type Task struct {
	Job *Job
	// ActualSec is the hidden ground-truth duration at nominal node speed;
	// the effective duration is ActualSec / nodeFactor.
	ActualSec float64
	// PredSec is the duration predicted by the semantics-aware model; the
	// SWRD scheduler's WRD sums these (Eq. 10).
	PredSec   float64
	StartTime float64
	EndTime   float64

	// Index is the task's position in its job's Maps or Reds.
	Index int
	// Attempts counts executing attempts of this task (1 on a clean run);
	// crash-killed attempts count, hoard-only slot occupancy does not.
	Attempts int

	// node is the hosting node index, set at dispatch.
	node int32
	// slot is the hosting slot id within the phase's pool, set at
	// dispatch — the task's stable track in the observability layer.
	slot int32
	// epoch versions the task's attempts; a scheduled event whose epoch no
	// longer matches is stale and ignored, which is how cancelled or
	// crash-killed attempts are invalidated without scanning the event heap.
	epoch int32
	// failures counts transient failures charged against the attempt cap.
	failures int32

	Reduce bool
	// State is written by setState alone once the job is built: the job
	// counts its running tasks and tracks its first pending one from there.
	State TaskState
	// faulted marks a task whose runtime was perturbed by injected faults
	// (failed attempt, crash kill, or dispatch into a slowdown window).
	faulted bool
}

// Per-phase state — slot pools, task counters, first-pending cursors — is
// indexed by phase, maps first.
const (
	mapPhase = iota
	reducePhase
)

// phase returns t's index into per-phase state.
func (t *Task) phase() int {
	if t.Reduce {
		return reducePhase
	}
	return mapPhase
}

// Faulted reports whether injected faults perturbed this task's runtime.
func (t *Task) Faulted() bool { return t.faulted }

// Failures returns how many transient failures the task has suffered.
func (t *Task) Failures() int { return int(t.failures) }

// Job is one MapReduce job inside a query.
type Job struct {
	ID    string // "<query>/<job>"
	JobID string // plan job ID ("J1")
	Query *Query
	Type  plan.JobType
	// Submitted reports that the simulator has submitted the job.
	Submitted bool
	// running counts the job's tasks in TaskRunning. It and the cursors
	// below are int32s in what was padding after Type and Submitted: Job
	// must not grow (see TestJobSizePinned).
	running int32
	Maps    []*Task
	Reds    []*Task
	// first bounds each phase's first pending task from below: no task at
	// a lower index is pending. nextPending moves it up, a task returning
	// to pending rewinds it.
	first [2]int32

	SubmitTime float64
	// ReadyTime is when initialisation completes and tasks may start.
	ReadyTime float64
	DoneTime  float64

	// pending and done count each phase's pending and finished tasks.
	pending [2]int
	done    [2]int
}

// MapsDone reports whether every map task has finished (reduces runnable).
func (j *Job) MapsDone() bool { return j.done[mapPhase] == len(j.Maps) }

// Done reports whether the whole job has finished.
func (j *Job) Done() bool { return j.MapsDone() && j.done[reducePhase] == len(j.Reds) }

// RunningTasks counts tasks currently occupying containers.
func (j *Job) RunningTasks() int { return int(j.running) }

// tasks returns the tasks of phase p.
func (j *Job) tasks(p int) []*Task {
	if p == reducePhase {
		return j.Reds
	}
	return j.Maps
}

// nextPending returns the first pending task of phase p.
func (j *Job) nextPending(p int) *Task {
	tasks, first := j.tasks(p), &j.first[p]
	for ; int(*first) < len(tasks); *first++ {
		if t := tasks[*first]; t.State == TaskPending {
			return t
		}
	}
	return nil
}

// setState moves t to state s, keeping its job's running count and
// first-pending cursor true. Every lifecycle transition goes through it.
func (t *Task) setState(s TaskState) {
	j := t.Job
	if t.State == TaskRunning {
		j.running--
	}
	if s == TaskRunning {
		j.running++
	}
	t.State = s
	if first := &j.first[t.phase()]; s == TaskPending && int32(t.Index) < *first {
		*first = int32(t.Index)
	}
}

// Start moves a pending task to running as a dispatch does: its job's
// pending and running counts and its query's remaining WRD follow. The
// simulator starts every task through it; a caller driving a scheduler over
// hand-built jobs does too, since RunningTasks does not see a State written
// directly.
func (t *Task) Start() {
	t.setState(TaskRunning)
	j := t.Job
	j.pending[t.phase()]--
	j.Query.remainingWRD -= t.PredSec
	if j.Query.remainingWRD < 0 {
		j.Query.remainingWRD = 0
	}
}

// requeue is Start's inverse: t is pending again with no start time, and
// its job's pending count and its query's remaining WRD count it again.
func (t *Task) requeue() {
	t.setState(TaskPending)
	t.StartTime = 0
	j := t.Job
	j.pending[t.phase()]++
	j.Query.remainingWRD += t.PredSec
}

// hoards reports whether t, running, is a hoarder: a reduce whose job's
// maps are not done, so it holds its slot without progressing.
func (t *Task) hoards() bool { return t.Reduce && !t.Job.MapsDone() }

// Query is a DAG of jobs submitted as one unit.
type Query struct {
	ID   string
	Jobs []*Job
	// InputBytes is the query's total base-table input (workload binning).
	InputBytes float64

	ArrivalTime float64
	DoneTime    float64

	// Err is non-nil when the query permanently failed — a task exhausted
	// its attempt cap under an injected fault plan. It is always a
	// *TaskFailedError. DoneTime then records the abandonment time.
	Err error
	// Faulted reports that injected faults touched at least one of the
	// query's tasks; drift samples from such queries are recorded in
	// separate "/faulted" buckets.
	Faulted bool

	remainingWRD float64
	// jobs, tasks and ptrs are the slabs Rebuild cuts the query's jobs,
	// tasks and task-pointer lists from.
	jobs  []Job
	tasks []Task
	ptrs  []*Task
}

// Failed reports whether the query was abandoned under fault injection.
func (q *Query) Failed() bool { return q.Err != nil }

// ResponseTime returns completion minus arrival, or -1 if unfinished.
func (q *Query) ResponseTime() float64 {
	if q.DoneTime < q.ArrivalTime {
		return -1
	}
	return q.DoneTime - q.ArrivalTime
}

// RemainingWRD returns the query's outstanding Weighted Resource Demand
// (Eq. 10): Σ predicted-map-time × remaining maps + predicted-reduce-time ×
// remaining reduces, over all jobs not yet started or in flight. It
// decreases as tasks are dispatched.
func (q *Query) RemainingWRD() float64 { return q.remainingWRD }

// Done reports whether every job has completed.
func (q *Query) Done() bool {
	for _, j := range q.Jobs {
		if !j.Done() {
			return false
		}
	}
	return true
}

// ResetPending initialises a job's task counters for tasks that are all
// pending. Query.Rebuild calls it automatically; callers constructing jobs by
// hand (tests, synthetic workloads) must call it before submission.
func (j *Job) ResetPending() {
	j.pending = [2]int{len(j.Maps), len(j.Reds)}
	j.running, j.first = 0, [2]int32{}
}

// RecomputeWRD recomputes the query's remaining Weighted Resource Demand
// from the predicted times of its not-yet-dispatched tasks.
func (q *Query) RecomputeWRD() {
	q.remainingWRD = 0
	for _, j := range q.Jobs {
		for _, tasks := range [2][]*Task{j.Maps, j.Reds} {
			for _, t := range tasks {
				if t.State == TaskPending {
					q.remainingWRD += t.PredSec
				}
			}
		}
	}
}

// TaskTimePredictor supplies per-task predicted durations — implemented by
// the predict package's task model (Eq. 9). Implementations must not
// consult ground truth.
type TaskTimePredictor interface {
	// PredictTask returns seconds for a task of the given operator type,
	// phase, per-task input/output bytes and join factor P(1-P).
	PredictTask(op plan.JobType, reduce bool, inBytes, outBytes, pFactor float64) float64
}

// ConstantPredictor predicts a fixed duration for every task; useful as a
// semantics-free baseline and in tests.
type ConstantPredictor float64

// PredictTask returns the constant.
func (c ConstantPredictor) PredictTask(plan.JobType, bool, float64, float64, float64) float64 {
	return float64(c)
}

// MaxQueryTasks bounds the tasks one query may lay out on a simulator, as
// Hadoop 1.x's mapred.jobtracker.maxtasks.per.job bounds a job. A task
// count is estimated bytes over the block, so it grows with the
// estimated join output — about 20× per level of a lineitem self-join —
// and without the bound one short text sizes a slab past memory. The
// largest layout measured is 2,691 tasks (a generated query at SF 300;
// the Section 5 replays reach 1,519, the serving benchmark's pool at
// SF 1 reaches 20), so the bound leaves a margin of 37×.
const MaxQueryTasks = 100_000

// TaskBoundError refuses an estimate Query.Rebuild must not lay out.
type TaskBoundError struct {
	// Tasks is the estimate's task count, summed in float64 so that no
	// count wraps; NaN when a byte volume is not finite, and 0 when a job
	// has no map task group.
	Tasks float64
}

// Error names the count and the bound.
func (e *TaskBoundError) Error() string {
	switch {
	case math.IsNaN(e.Tasks):
		return "cluster: the estimate has a non-finite byte volume"
	case e.Tasks == 0:
		return "cluster: a job of the estimate has no map task group"
	}
	return fmt.Sprintf("cluster: the query needs %.4g tasks, over the %d-task bound", e.Tasks, MaxQueryTasks)
}

// CheckTaskBound returns a *TaskBoundError when qe has more than
// MaxQueryTasks tasks, a non-finite byte volume or a job without a map
// task group, and nil when Query.Rebuild may lay it out. It is where an
// estimate built outside the estimator enters: nothing downstream
// repairs a missing layout.
func CheckTaskBound(qe *selectivity.QueryEstimate) error {
	n := 0.0
	for _, je := range qe.Jobs {
		if v := je.InBytes + je.MedBytes + je.OutBytes; math.IsNaN(v) || math.IsInf(v, 0) {
			return &TaskBoundError{Tasks: math.NaN()}
		}
		if len(je.MapGroups) == 0 {
			return &TaskBoundError{}
		}
		for _, reduce := range [2]bool{false, true} {
			for _, g := range je.Groups(reduce) {
				n += float64(g.Count)
			}
		}
	}
	if n > MaxQueryTasks {
		return &TaskBoundError{Tasks: n}
	}
	return nil
}

// BuildQuery turns a selectivity-annotated DAG into a new simulator
// query: Rebuild into a fresh Query.
func BuildQuery(id string, qe *selectivity.QueryEstimate, cm *trace.CostModel, pred TaskTimePredictor) *Query {
	q := new(Query)
	q.Rebuild(id, qe, cm, pred)
	return q
}

// Rebuild lays qe out as query id in q, in place, resetting everything a
// run writes: each job's tasks are its estimate's task groups, maps then
// reduces, each task taking its group's input/output volumes; ground-truth
// durations are drawn from the cost model, and predicted durations from
// the predictor, called once per group. The group counts size the
// query's slabs — jobs, job pointers, tasks and task pointers — each q's
// previous one when its capacity allows, so a long-lived owner (a
// serving-pool worker) rebuilds query after query without allocating. The jobs' ids are cut from one new
// string: spans and errors keep it.
func (q *Query) Rebuild(id string, qe *selectivity.QueryEstimate, cm *trace.CostModel, pred TaskTimePredictor) {
	total, idLen := 0, 0
	for _, je := range qe.Jobs {
		for _, reduce := range [2]bool{false, true} {
			for _, g := range je.Groups(reduce) {
				total += g.Count
			}
		}
		idLen += len(id) + 1 + len(je.Job.ID)
	}
	var ids strings.Builder
	ids.Grow(idLen)
	for _, je := range qe.Jobs {
		ids.WriteString(id)
		ids.WriteByte('/')
		ids.WriteString(je.Job.ID)
	}
	idBuf := ids.String()
	*q = Query{
		ID: id, InputBytes: qe.TotalInputBytes(),
		Jobs:  resized(q.Jobs, len(qe.Jobs)),
		jobs:  resized(q.jobs, len(qe.Jobs)),
		tasks: resized(q.tasks, total),
		ptrs:  resized(q.ptrs, total),
	}
	tasks, ptrs := q.tasks, q.ptrs
	for ji, je := range qe.Jobs {
		j := &q.jobs[ji]
		q.Jobs[ji] = j
		n := len(id) + 1 + len(je.Job.ID)
		*j = Job{ID: idBuf[:n], JobID: je.Job.ID, Query: q, Type: je.Job.Type}
		idBuf = idBuf[n:]
		pf := je.PFactor()
		for _, reduce := range [2]bool{false, true} {
			n := 0
			for _, g := range je.Groups(reduce) {
				spec := trace.TaskSpec{Op: j.Type, Reduce: reduce, InBytes: g.InBytes, OutBytes: g.OutBytes}
				p := pred.PredictTask(j.Type, reduce, g.InBytes, g.OutBytes, pf)
				for i := 0; i < g.Count; i++ {
					tasks[n] = Task{Job: j, Reduce: reduce, Index: n, ActualSec: cm.Duration(spec), PredSec: p}
					q.remainingWRD += p
					ptrs[n] = &tasks[n]
					n++
				}
			}
			if reduce {
				j.Reds = ptrs[:n:n]
			} else {
				j.Maps = ptrs[:n:n]
			}
			tasks, ptrs = tasks[n:], ptrs[n:]
		}
		j.ResetPending()
	}
}

// SlabBytes returns the storage q keeps for its next Rebuild, in bytes:
// the capacity of its job, job-pointer, task and task-pointer slabs. An
// owner that reuses q bounds what it keeps between layouts by it.
func (q *Query) SlabBytes() int {
	return cap(q.Jobs)*int(unsafe.Sizeof((*Job)(nil))) + cap(q.jobs)*int(unsafe.Sizeof(Job{})) +
		cap(q.tasks)*int(unsafe.Sizeof(Task{})) + cap(q.ptrs)*int(unsafe.Sizeof((*Task)(nil)))
}

// EachSample calls fn for the first perGroup tasks of every task group
// of j — maps, then reduces — with the group whose per-task volumes the
// task was built from. je must be the estimate Query.Rebuild built j from;
// the group→task index layout is Rebuild's and is known only here.
func (j *Job) EachSample(je *selectivity.JobEstimate, perGroup int, fn func(g selectivity.TaskGroup, t *Task)) {
	for p, reduce := range [2]bool{false, true} {
		tasks := j.tasks(p)
		idx := 0
		for _, g := range je.Groups(reduce) {
			for i := 0; i < g.Count && i < perGroup; i++ {
				fn(g, tasks[idx+i])
			}
			idx += g.Count
		}
	}
}
