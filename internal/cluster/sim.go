package cluster

import (
	"context"
	"fmt"
	"math"
	"sort"

	"saqp/internal/fault"
	"saqp/internal/obs"
)

// Config sizes the simulated cluster. Defaults mirror the paper's testbed:
// 9 nodes × 12 containers, split Hadoop-1 style into map and reduce slots.
type Config struct {
	Nodes int
	// MapSlotsPerNode and ReduceSlotsPerNode partition each node's
	// containers by phase, as Hadoop 1.x task trackers did (the paper's 12
	// containers/node ≈ 8 map + 4 reduce slots).
	MapSlotsPerNode    int
	ReduceSlotsPerNode int
	// NodeFactors optionally gives per-node speed multipliers (length
	// Nodes); nil means 1.0 everywhere.
	NodeFactors []float64
	// SchedulingOverheadSec is added to every task dispatch (heartbeat and
	// container launch latency).
	SchedulingOverheadSec float64
	// JobInitSec delays a job's tasks after submission — Hadoop 1.x job
	// initialization (split computation, task localisation) plus Hive's
	// per-stage planning.
	JobInitSec float64
	// ReduceSlowstart is the fraction of a job's maps that must complete
	// before its reduces launch (mapred.reduce.slowstart.completed.maps,
	// Hadoop default 0.05). A launched reduce occupies its slot through
	// the end of its job's map phase — the slot hoarding behind the delay
	// tails and monopolizing behaviour the paper cites ([27], [30]).
	ReduceSlowstart float64
	// PreemptiveReduce enables the preemptive reduce-task scheduling of the
	// paper's reference [30] (Wang et al., ICAC'13): a reduce that is
	// hoarding its slot waiting for its job's maps is preempted — requeued
	// at no lost work — when another job has shuffle-ready reduces and no
	// slot is free. Jobs with completed map phases also take priority for
	// reduce slots, preventing relaunch ping-pong.
	PreemptiveReduce bool
	// Faults optionally injects deterministic node crashes, slowdown
	// windows and transient task failures into the run (see
	// internal/fault). Nil — the default — and a zero-spec plan leave the
	// schedule byte-identical to a fault-free run.
	Faults *fault.Plan
}

// DefaultConfig mirrors the paper's 9-node, 12-container testbed.
func DefaultConfig() Config {
	return Config{
		Nodes:                 9,
		MapSlotsPerNode:       8,
		ReduceSlotsPerNode:    4,
		SchedulingOverheadSec: 0.5,
		JobInitSec:            10,
		ReduceSlowstart:       0.05,
	}
}

// Normalized resolves the defaulting rules: the config the simulator
// actually runs, and so the one a predictor must size itself from. Unset
// nodes and slot counts take DefaultConfig's 9 nodes × (8 map + 4 reduce);
// a config with unset nodes is the paper's testbed, so an unset scheduling
// overhead or job initialisation delay takes DefaultConfig's too.
func (c Config) Normalized() Config {
	d := DefaultConfig()
	if c.Nodes <= 0 {
		c.Nodes = d.Nodes
		if c.SchedulingOverheadSec <= 0 {
			c.SchedulingOverheadSec = d.SchedulingOverheadSec
		}
		if c.JobInitSec <= 0 {
			c.JobInitSec = d.JobInitSec
		}
	}
	if c.MapSlotsPerNode <= 0 && c.ReduceSlotsPerNode <= 0 {
		c.MapSlotsPerNode, c.ReduceSlotsPerNode = d.MapSlotsPerNode, d.ReduceSlotsPerNode
	}
	if c.MapSlotsPerNode < 1 {
		c.MapSlotsPerNode = 1
	}
	if c.ReduceSlotsPerNode < 1 {
		c.ReduceSlotsPerNode = 1
	}
	if c.ReduceSlowstart <= 0 {
		c.ReduceSlowstart = d.ReduceSlowstart
	}
	if c.ReduceSlowstart > 1 {
		c.ReduceSlowstart = 1
	}
	return c
}

// ConfigError reports a cluster config the simulator refuses to run.
type ConfigError struct {
	Reason string
}

// Error names the config field at fault.
func (e *ConfigError) Error() string { return "cluster: invalid config: " + e.Reason }

// Check reports whether the normalized config can be simulated: NodeFactors,
// when set, must give every node a finite speed above zero. It is the one
// check, made where a config enters from outside (serve.New, Sim.Run).
func (c Config) Check() error {
	c = c.Normalized()
	if c.NodeFactors == nil {
		return nil
	}
	if len(c.NodeFactors) != c.Nodes {
		return &ConfigError{Reason: fmt.Sprintf("%d NodeFactors for %d nodes", len(c.NodeFactors), c.Nodes)}
	}
	for n, f := range c.NodeFactors {
		if !(f > 0) || math.IsInf(f, 1) {
			return &ConfigError{Reason: fmt.Sprintf("NodeFactors[%d] = %v, want finite and > 0", n, f)}
		}
	}
	return nil
}

// Scheduler ranks jobs when a slot frees. The simulator filters the active
// set down to jobs holding a runnable task of the requested phase before
// calling PickJob; implementations only choose *which job* goes next.
// Both slices are the simulator's own storage, rewritten by the next
// dispatch: PickJob must not retain candidates or active past its return.
type Scheduler interface {
	Name() string
	// PickJob selects the next job to serve from candidates (all of which
	// have a runnable task of the given phase), or nil to leave the slot
	// idle. active carries every submitted-but-unfinished job, which
	// share-based policies need for usage accounting.
	PickJob(now float64, candidates, active []*Job, reduce bool) *Job
}

// event is a simulator occurrence ordered by (time, seq). The queue
// stores each event once, in a slot it keeps until the event pops, so
// event must not grow (see TestEventSizePinned).
type event struct {
	time float64
	// seq breaks ties deterministically in arrival order. It is unique, so
	// (time, seq) is a strict total order: any correct heap pops the same
	// sequence.
	seq int

	query *Query // arrival
	task  *Task  // finish, fail, retry
	slot  int32  // slot of the finishing attempt
	// epoch must match the task's attempt epoch for the event to apply;
	// cancelled and crash-killed attempts bump the epoch, turning their
	// scheduled events into no-ops.
	epoch int32
	// node targets crash/recover events.
	node int32
	kind eventKind
}

type eventKind uint8

const (
	evArrival eventKind = iota
	evFinish
	evWake     // a job finished initialising; re-run dispatch
	evTaskFail // a running attempt fails transiently (fault plan)
	evRetry    // a failed task's backoff expired; re-queue it
	evCrash    // a node goes down, killing its attempts
	evRecover  // a crashed node rejoins with all slots free
)

// eventKey is a queued event's place in the heap: its (time, seq) and the
// store slot holding it. It has no pointers, so sifting keys moves no
// pointer past a write barrier and the heap is nothing for the collector
// to scan (see TestEventKeySizePinned).
type eventKey struct {
	time float64
	seq  int
	at   int32
}

// before reports whether a pops ahead of b.
func (a *eventKey) before(b *eventKey) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// eventQueue is a binary min-heap of event keys, earliest first, over a
// store of the events themselves, which never move while queued.
type eventQueue struct {
	keys  []eventKey
	store []event
	free  []int32 // store slots vacated by pop, reused by push
}

// len returns how many events are queued.
func (q *eventQueue) len() int { return len(q.keys) }

// push stores ev in a free slot and adds its key, moving the hole it opens
// up past every later parent.
func (q *eventQueue) push(ev event) {
	var at int32
	if n := len(q.free); n > 0 {
		at, q.free = q.free[n-1], q.free[:n-1]
		q.store[at] = ev
	} else {
		at = int32(len(q.store))
		q.store = append(q.store, ev) //lint:allow saqpvet/allocfree grows only while a Sim warms up; TestHotPathAllocs proves a warmed run allocates nothing here
	}
	k := eventKey{time: ev.time, seq: ev.seq, at: at}
	h := append(q.keys, k) //lint:allow saqpvet/allocfree grows only while a Sim warms up
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !k.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
	q.keys = h
}

// pop removes and returns the earliest event. Its store slot is zeroed and
// freed, so the store pins no task or query it no longer queues.
func (q *eventQueue) pop() event {
	h := q.keys
	top := h[0].at
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(&h[c]) {
				c = r
			}
			if !h[c].before(&last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	q.keys = h
	ev := q.store[top]
	q.store[top] = event{}
	q.free = append(q.free, top) //lint:allow saqpvet/allocfree grows only while a Sim warms up
	return ev
}

// reset empties q, keeping its storage; the store is zeroed, so events a
// stopped run left queued pin none of its tasks or queries.
func (q *eventQueue) reset() eventQueue {
	clear(q.store)
	return eventQueue{keys: q.keys[:0], store: q.store[:0], free: q.free[:0]}
}

// Sim is one simulation run: a cluster, a scheduler and a set of queries.
// Reset starts another run on the same value, keeping its storage.
type Sim struct {
	cfg   Config
	sched Scheduler
	obs   *obs.Observer // nil disables all instrumentation

	factors []float64
	// free holds each phase's free slot ids. Slot id s of phase p lives on
	// node s / perNode[p], giving every task a stable (node, slot)
	// identity for observability.
	free    [2][]int
	perNode [2]int
	events  eventQueue
	seq     int
	now     float64
	queries []*Query
	active  []*Job // submitted, unfinished jobs in submission order
	cands   []*Job // candidates' result, valid until its next call
	hoarded int    // reduce slots held by not-yet-runnable reduces

	// Fault-injection state (dormant while fplan is nil).
	fplan       *fault.Plan
	down        []bool // node is inside a crash window
	blacklisted []bool // node excluded after repeated failures
	nodeFails   []int  // transient failures hosted per node
	fstats      FaultStats
	terminal    int // queries completed or failed; Run stops at len(queries)

	res Results // what Run returns, valid until the next Reset
}

// New builds a simulator with the given cluster config and scheduler.
func New(cfg Config, sched Scheduler) *Sim {
	s := new(Sim)
	s.Reset(cfg, sched)
	return s
}

// Reset re-initialises s in place for a fresh run under cfg and sched,
// with no observer attached: afterwards s behaves exactly as New(cfg,
// sched) would, but slot pools, the event queue, the per-node tables and
// the scheduler scratch keep their storage, so a long-lived owner (a
// serving-pool worker) simulates query after query without rebuilding the
// cluster. The Results of the run before are valid until Reset: the
// queries slice they list and the Results themselves are s's storage.
func (s *Sim) Reset(cfg Config, sched Scheduler) {
	cfg = cfg.Normalized()
	// Events a stopped run left queued are cleared, and so are the
	// submitted queries, so they pin none of its tasks or queries (pop
	// zeroes what it vacates).
	events := s.events.reset()
	clear(s.queries)
	// Everything not named here starts from zero; what is named is
	// storage, emptied.
	*s = Sim{
		cfg: cfg, sched: sched, fplan: cfg.Faults,
		factors:     s.factors[:0],
		free:        [2][]int{s.free[mapPhase][:0], s.free[reducePhase][:0]},
		perNode:     [2]int{cfg.MapSlotsPerNode, cfg.ReduceSlotsPerNode},
		events:      events,
		queries:     s.queries[:0],
		active:      s.active[:0],
		cands:       s.cands[:0],
		down:        zeroed(s.down, cfg.Nodes),
		blacklisted: zeroed(s.blacklisted, cfg.Nodes),
		nodeFails:   zeroed(s.nodeFails, cfg.Nodes),
	}
	for n := 0; n < cfg.Nodes; n++ {
		f := 1.0
		if n < len(cfg.NodeFactors) {
			f = cfg.NodeFactors[n] // Run refuses the config unless Check passes
		}
		s.factors = append(s.factors, f)
		s.addNodeSlots(n)
	}
	if s.fplan != nil {
		// The plan's node windows were expanded at construction; book them
		// as events now so the run replays them deterministically. Windows
		// for nodes beyond this cluster are ignored.
		for _, w := range s.fplan.Crashes() {
			if w.Node >= cfg.Nodes {
				continue
			}
			s.push(event{time: w.Start, kind: evCrash, node: int32(w.Node)})
			s.push(event{time: w.End, kind: evRecover, node: int32(w.Node)})
		}
	}
}

// zeroed returns buf resized to n zero elements, reallocating only to grow.
func zeroed[T any](buf []T, n int) []T {
	buf = resized(buf, n)
	clear(buf)
	return buf
}

// resized returns buf at length n, reallocating only to grow; the
// elements it keeps hold what they held.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// push books ev at the next sequence number.
func (s *Sim) push(ev event) {
	s.seq++
	ev.seq = s.seq
	s.events.push(ev)
}

// SetObserver attaches the observability layer to this run: lifecycle
// events (submit, init, dispatch, slowstart hoarding, preemption,
// faults, completion) flow to o's trace, metrics and drift sinks,
// timestamped with the simulator's virtual clock, and so do the scheduler's
// decisions (see decided). A nil o (the default) keeps the hot path free of
// instrumentation.
func (s *Sim) SetObserver(o *obs.Observer) *Sim {
	s.obs = o
	if o != nil {
		o.RunStarted(s.sched.Name())
		o.ClusterInfo(s.cfg.Nodes, s.cfg.MapSlotsPerNode, s.cfg.ReduceSlotsPerNode, s.fplan != nil)
	}
	return s
}

// jobEvent starts an event about job j at the current virtual time.
func (s *Sim) jobEvent(kind obs.Kind, j *Job) obs.Event {
	return obs.Event{Kind: kind, At: s.now, Query: j.Query.ID, Job: j.ID, JobType: j.Type.String()}
}

// taskEvent starts an event about an attempt of task t on slot.
func (s *Sim) taskEvent(kind obs.Kind, t *Task, slot int) obs.Event {
	e := s.jobEvent(kind, t.Job)
	e.Reduce, e.Index, e.Node, e.Slot = t.Reduce, t.Index, s.nodeOf(t.phase(), slot), slot
	return e
}

// nodeOf maps a slot id of phase p back to its node index.
func (s *Sim) nodeOf(p, slot int) int { return slot / s.perNode[p] }

// addNodeSlots adds every slot of node to the free pools.
func (s *Sim) addNodeSlots(node int) {
	for p, per := range s.perNode {
		for k := 0; k < per; k++ {
			s.free[p] = append(s.free[p], node*per+k)
		}
	}
}

// reduceSlots returns the total reduce slot count.
func (s *Sim) reduceSlots() int { return s.cfg.Nodes * s.perNode[reducePhase] }

// Submit schedules a query's arrival.
func (s *Sim) Submit(q *Query, at float64) {
	q.ArrivalTime = at
	s.queries = append(s.queries, q)
	s.push(event{time: at, kind: evArrival, query: q})
}

// Results summarises a completed run. A Sim owns the Results its run
// returns, and Queries is its own slice: both are valid until the Sim's
// next Reset.
type Results struct {
	SchedulerName string
	Makespan      float64
	// Queries in submission order, with completion times filled in.
	Queries []*Query
	// Completed and Failed partition the queries by terminal state; Failed
	// is nonzero only under a fault plan, and each failed query carries a
	// *TaskFailedError on Query.Err.
	Completed int
	Failed    int
	// Faults tallies injected-fault recovery activity during the run.
	Faults FaultStats
}

// AvgResponseTime returns the mean query response time.
func (r *Results) AvgResponseTime() float64 {
	if len(r.Queries) == 0 {
		return 0
	}
	var t float64
	for _, q := range r.Queries {
		t += q.ResponseTime()
	}
	return t / float64(len(r.Queries))
}

// PercentileResponse returns the p-quantile (0 < p <= 1) of query response
// times, by nearest-rank.
func (r *Results) PercentileResponse(p float64) float64 {
	if len(r.Queries) == 0 {
		return 0
	}
	resp := make([]float64, len(r.Queries))
	for i, q := range r.Queries {
		resp[i] = q.ResponseTime()
	}
	sort.Float64s(resp)
	if p <= 0 {
		return resp[0]
	}
	if p >= 1 {
		return resp[len(resp)-1]
	}
	idx := int(math.Ceil(p*float64(len(resp)))) - 1
	if idx < 0 {
		idx = 0
	}
	return resp[idx]
}

// Run processes events until all submitted queries complete.
func (s *Sim) Run() (*Results, error) {
	return s.RunContext(context.Background()) //lint:allow saqpvet/ctxleak Run is the deliberate never-canceled entry point; RunContext is the cancellable form
}

// RunContext is Run with cooperative cancellation: the event loop checks
// ctx between events and aborts with ctx.Err() once it is done. A run
// that is never canceled is indistinguishable from Run — cancellation is
// the only nondeterminism the context introduces, which keeps seeded
// serving-pool runs reproducible. A config that fails Config.Check is
// refused with its *ConfigError before any event runs.
func (s *Sim) RunContext(ctx context.Context) (*Results, error) {
	if err := s.cfg.Check(); err != nil {
		return nil, err
	}
	done := ctx.Done()
	for s.events.len() > 0 {
		if done != nil {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		e := s.events.pop()
		s.now = e.time
		switch e.kind {
		case evArrival:
			s.arrive(e.query)
		case evFinish:
			s.finish(&e)
		case evWake:
			// no state change; jobs become ready by time passing
		case evTaskFail:
			s.taskFail(&e)
		case evRetry:
			s.retryTask(&e)
		case evCrash:
			s.crashNode(int(e.node))
		case evRecover:
			s.recoverNode(int(e.node))
		}
		// Dispatch once per instant, after its last event, so queries that
		// arrive or become ready together are ranked together.
		if s.events.len() == 0 || s.events.keys[0].time > s.now {
			s.dispatch()
		}
		// Stop once every query reached a terminal state: trailing fault
		// events (a crash window after the last completion) must not
		// stretch the makespan.
		if len(s.queries) > 0 && s.terminal == len(s.queries) {
			break
		}
	}
	for _, q := range s.queries {
		if !q.Done() && !q.Failed() {
			return nil, fmt.Errorf("cluster: query %s did not complete (starvation?)", q.ID)
		}
	}
	s.res = Results{SchedulerName: s.sched.Name(), Makespan: s.now, Queries: s.queries,
		Faults: s.fstats}
	res := &s.res
	for _, q := range s.queries {
		if q.Failed() {
			res.Failed++
		} else {
			res.Completed++
		}
	}
	return res, nil
}

// arrive submits a query's first job; each later one is submitted when the
// job before it completes (finish).
func (s *Sim) arrive(q *Query) {
	if s.obs != nil {
		s.obs.Emit(obs.Event{Kind: obs.QueryArrived, At: s.now, Query: q.ID},
			obs.AttrInt("jobs", len(q.Jobs)), obs.AttrFloat("input_bytes", q.InputBytes))
	}
	if len(q.Jobs) > 0 {
		s.submitJob(q.Jobs[0])
	}
}

func (s *Sim) submitJob(j *Job) {
	j.Submitted = true
	j.SubmitTime = s.now
	j.ReadyTime = s.now + s.cfg.JobInitSec
	s.active = append(s.active, j)
	if cap(s.cands) < len(s.active) {
		s.cands = make([]*Job, cap(s.active))
	}
	if s.cfg.JobInitSec > 0 {
		s.push(event{time: j.ReadyTime, kind: evWake})
	}
	if s.obs != nil {
		s.obs.Emit(s.jobEvent(obs.JobSubmitted, j), obs.AttrInt("maps", len(j.Maps)),
			obs.AttrInt("reduces", len(j.Reds)), obs.AttrFloat("init_until_sec", j.ReadyTime))
	}
}

// deactivate removes j from the active set, if it is there.
func (s *Sim) deactivate(j *Job) {
	for i, a := range s.active {
		if a == j {
			s.active = append(s.active[:i], s.active[i+1:]...)
			return
		}
	}
}

// reduceLaunchAllowed reports whether job j may launch another reduce now.
// Reduces unlock once the slowstart fraction of maps completes, exactly as
// Hadoop 1.x did — launched reduces then sit on their slots until the map
// phase ends (the delay-tail behaviour of the paper's [27] and [30]).
// Across all jobs, at most half the cluster's reduce slots may be hoarded
// at once, mirroring the reduce-slot caps operators configured to keep
// clusters live.
func (s *Sim) reduceLaunchAllowed(j *Job) bool {
	if j.pending[reducePhase] <= 0 {
		return false
	}
	if j.MapsDone() {
		return true
	}
	maps := len(j.Maps)
	if maps == 0 {
		return true
	}
	need := int(math.Ceil(s.cfg.ReduceSlowstart * float64(maps)))
	if need < 1 {
		need = 1
	}
	if j.done[mapPhase] < need {
		return false
	}
	// Per-job cap: one job may hoard at most half the reduce slots — the
	// per-pool reduce caps operators configured. Global floor: a quarter of
	// the reduce slots always stay available for runnable reduces, keeping
	// the cluster live under any scheduling policy.
	slots := s.reduceSlots()
	perJob := slots / 2
	if perJob < 1 {
		perJob = 1
	}
	globalCap := (3 * slots) / 4
	if globalCap < 1 {
		globalCap = 1
	}
	launched := len(j.Reds) - j.pending[reducePhase]
	return launched < perJob && s.hoarded < globalCap
}

// finish completes a task attempt, frees its slot, and cascades job/query
// completion (submitting the query's next job).
func (s *Sim) finish(e *event) {
	t, slot := e.task, int(e.slot)
	if e.epoch != t.epoch {
		return // the attempt was cancelled, killed or failed
	}
	j := t.Job
	t.epoch++
	t.setState(TaskDone)
	t.EndTime = s.now
	if s.obs != nil {
		done := s.taskEvent(obs.TaskFinished, t, slot)
		done.Start, done.Pred, done.Faulted = t.StartTime, t.PredSec, t.faulted
		s.obs.Emit(done)
	}
	s.releaseSlot(t.phase(), slot)
	j.done[t.phase()]++
	// The last map just finished: every task of the job still running is a
	// hoarding reduce (launched early, waiting for shuffle input), and each
	// can now run to completion.
	if !t.Reduce && j.MapsDone() && j.running > 0 {
		if s.obs != nil {
			s.obs.Emit(s.jobEvent(obs.ShuffleReady, j), obs.AttrInt("released_reduces", int(j.running)))
		}
		s.hoarded -= int(j.running)
		for _, r := range j.Reds {
			if r.State == TaskRunning {
				s.scheduleFinish(r)
			}
		}
	}
	if !j.Done() {
		return
	}
	j.DoneTime = s.now
	if s.obs != nil {
		jobDone := s.jobEvent(obs.JobFinished, j)
		jobDone.Start = j.SubmitTime
		s.obs.Emit(jobDone)
	}
	s.deactivate(j)
	// A query is a chain: submit the job after the one that completed.
	q := j.Query
	for _, next := range q.Jobs {
		if !next.Submitted {
			s.submitJob(next)
			break
		}
	}
	if q.Done() {
		q.DoneTime = s.now
		s.terminal++
		if s.obs != nil {
			s.obs.Emit(obs.Event{Kind: obs.QueryFinished, At: s.now, Start: q.ArrivalTime, Query: q.ID})
		}
	}
}

// scheduleFinish books the completion event for a running task, charging
// the node speed factor (including any active slowdown window) and
// dispatch overhead. Under a fault plan the attempt may instead be booked
// to fail partway through: the slot burns for the failure fraction of the
// attempt's duration, then taskFail takes over.
//
//saqp:hotpath
func (s *Sim) scheduleFinish(t *Task) {
	t.Attempts++
	factor := s.effFactor(int(t.node))
	if s.fplan != nil && factor != s.factors[t.node] {
		t.faulted = true
		t.Job.Query.Faulted = true
		s.obs.Count(obs.MSlowDispatches)
	}
	dur := t.ActualSec/factor + s.cfg.SchedulingOverheadSec
	if fail, frac := s.fplan.TaskFailure(t.Job.ID, t.Reduce, t.Index, t.Attempts); fail {
		s.push(event{time: s.now + frac*dur, kind: evTaskFail, task: t, slot: t.slot, epoch: t.epoch})
		return
	}
	s.push(event{time: s.now + dur, kind: evFinish, task: t, slot: t.slot, epoch: t.epoch})
}

// dispatch assigns runnable tasks to free slots until the scheduler
// declines or slots run out (work conservation per phase). It runs after
// every event and must not allocate on a warmed Sim; its business is a
// call through the Scheduler interface, which allocfree cannot follow, so
// TestHotPathAllocs alone holds it to that.
func (s *Sim) dispatch() {
	// Maps first, then reduces. An empty reduce pool may gain a slot by
	// preemption, unless the evicted reduce sat on a blacklisted node,
	// whose slots stay withheld: so the pool is checked again.
	for p, reduce := range [2]bool{false, true} {
		for len(s.free[p]) > 0 || reduce && s.preemptForRunnableReduce() && len(s.free[p]) > 0 {
			cands := s.candidates(reduce)
			if len(cands) == 0 {
				break
			}
			j := s.sched.PickJob(s.now, cands, s.active, reduce)
			s.decided(cands, j, reduce)
			if j == nil {
				break
			}
			t := j.nextPending(p)
			if t == nil {
				panic(fmt.Sprintf("cluster: scheduler picked job %s with no pending %s", j.ID, [2]string{"map", "reduce"}[p]))
			}
			s.start(t)
		}
	}
}

// decided records one PickJob outcome with the observer: the winner (nil
// leaves the slot idle) and the full candidate ranking the policy saw
// (remaining WRD, running tasks, submit time per job), which makes "why
// did the scheduler pick this query" answerable from the trace. The
// ranking is built only for a timeline: the span collector and the
// registry keep just the queue depth.
func (s *Sim) decided(cands []*Job, j *Job, reduce bool) {
	if s.obs == nil {
		return
	}
	var ranked []obs.Candidate
	if s.obs.Trace != nil {
		ranked = make([]obs.Candidate, len(cands))
		for i, c := range cands {
			ranked[i] = obs.Candidate{Job: c.ID, Query: c.Query.ID, WRD: c.Query.RemainingWRD(),
				Running: c.RunningTasks(), Submit: c.SubmitTime}
		}
	}
	picked := ""
	if j != nil {
		picked = j.ID
	}
	s.obs.SchedulerDecision(s.now, s.sched.Name(), reduce, picked, len(cands), ranked)
}

// preemptForRunnableReduce implements [30]-style preemption: when no reduce
// slot is free but some job has shuffle-ready reduces (maps done) pending,
// evict one hoarding reduce (requeued at no lost work) to free a slot.
// Returns whether a reduce was evicted.
func (s *Sim) preemptForRunnableReduce() bool {
	if !s.cfg.PreemptiveReduce || s.hoarded == 0 {
		return false
	}
	// Is any shuffle-ready reduce waiting?
	ready := false
	for _, j := range s.active {
		if j.ReadyTime <= s.now && j.MapsDone() && j.pending[reducePhase] > 0 {
			ready = true
			break
		}
	}
	if !ready {
		return false
	}
	// Evict the most recently launched hoarding reduce (least sunk wait);
	// hoarded > 0, so there is one.
	var victim *Task
	for _, j := range s.active {
		if j.MapsDone() {
			continue
		}
		for _, t := range j.Reds {
			if t.State == TaskRunning && (victim == nil || t.StartTime > victim.StartTime) {
				victim = t
			}
		}
	}
	if s.obs != nil {
		s.obs.Emit(s.taskEvent(obs.ReducePreempted, victim, int(victim.slot)), obs.AttrFloat("hoarded_sec", s.now-victim.StartTime))
	}
	s.vacate(victim)
	victim.requeue()
	return true
}

// candidates filters ready jobs to those with a runnable task of a phase.
// The result is scratch storage (submitJob keeps it as large as the
// active set), valid until the next call.
//
//saqp:hotpath
func (s *Sim) candidates(reduce bool) []*Job {
	out, n := s.cands[:len(s.active)], 0
	for _, j := range s.active {
		if j.ReadyTime > s.now {
			continue
		}
		if reduce && s.reduceLaunchAllowed(j) || !reduce && j.pending[mapPhase] > 0 {
			out[n] = j
			n++
		}
	}
	// Under preemptive reduce scheduling, shuffle-ready jobs take priority
	// for reduce slots over would-be hoarders.
	if reduce && s.cfg.PreemptiveReduce {
		ready := 0
		for _, j := range out[:n] {
			if j.MapsDone() {
				out[ready] = j
				ready++
			}
		}
		if ready > 0 {
			n = ready
		}
	}
	return out[:n]
}

// start occupies a free slot of t's phase with t. A reduce launched before
// its job's maps are done hoards the slot until they are (finish).
func (s *Sim) start(t *Task) {
	p := t.phase()
	pool := s.free[p]
	slot := pool[len(pool)-1]
	s.free[p] = pool[:len(pool)-1]
	t.slot = int32(slot)
	t.node = int32(s.nodeOf(p, slot))
	t.Start()
	t.StartTime = s.now
	if t.hoards() {
		// Shuffle cannot complete until the maps do: hold the slot.
		if s.obs != nil {
			s.obs.Emit(s.taskEvent(obs.ReduceHoarded, t, slot))
		}
		s.hoarded++
		return
	}
	s.scheduleFinish(t)
}

// vacate ends t's running attempt without finishing it: the attempt's
// scheduled finish or failure goes stale, a hoarder stops counting against
// the hoarding caps, and the slot goes back to its pool unless its node is
// down or blacklisted. The caller moves t out of TaskRunning.
func (s *Sim) vacate(t *Task) {
	t.epoch++
	if t.hoards() {
		s.hoarded--
	}
	s.releaseSlot(t.phase(), int(t.slot))
}

// JobSpan reports a job's first task start and last task end — the data
// behind the paper's Figure 2 execution timelines.
func JobSpan(j *Job) (start, end float64) {
	start = math.Inf(1)
	for _, tasks := range [2][]*Task{j.Maps, j.Reds} {
		for _, t := range tasks {
			if t.State != TaskDone {
				continue
			}
			if t.StartTime < start {
				start = t.StartTime
			}
			if t.EndTime > end {
				end = t.EndTime
			}
		}
	}
	return start, end
}
