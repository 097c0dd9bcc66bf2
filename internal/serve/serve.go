package serve

import (
	"container/heap"
	"context"
	"errors"
	"strconv"
	"sync"

	"saqp/internal/cluster"
	"saqp/internal/core"
	"saqp/internal/dataset"
	"saqp/internal/learn"
	"saqp/internal/obs"
	"saqp/internal/plan"
	"saqp/internal/predict"
	"saqp/internal/query"
	"saqp/internal/sched"
	"saqp/internal/selectivity"
	"saqp/internal/slab"
	"saqp/internal/trace"
)

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("serve: engine closed")

// ErrQueueFull is returned by Submit when the admission queue holds
// QueueCap tickets.
var ErrQueueFull = errors.New("serve: admission queue full")

// QueueCap bounds an engine's admission queue: a submission beyond it
// fails with ErrQueueFull (the wire's -BUSY).
const QueueCap = 256

// Config assembles a serving engine. Estimator is required; everything
// else defaults sensibly.
type Config struct {
	// Schemas resolve submitted queries; nil defaults to
	// dataset.AllSchemas().
	Schemas map[string]*dataset.Schema
	// Estimator performs selectivity estimation (required). It must be
	// read-only after construction — the pool shares it without locks.
	Estimator *selectivity.Estimator
	// CatalogFingerprint identifies the statistics the estimator reads
	// (catalog.Fingerprint). It is folded into every cache key, so an
	// engine rebuilt over fresh statistics never serves stale estimates.
	CatalogFingerprint string
	// TaskModel supplies the WRD admission ranking and per-task
	// predicted durations. Nil degrades gracefully: FIFO admission
	// (every WRD is 0) and a constant task-time baseline.
	TaskModel *predict.TaskModel
	// JobModel, together with Observer, records per-job prediction
	// drift for every served query (the live Tables 3–5).
	JobModel *predict.JobModel
	// Cluster sizes each pool simulator as cluster.Config.Normalized
	// resolves it: the zero value means the paper's 9-node default, and
	// the fields set beside an unset Nodes are kept. Cluster.Faults must
	// be nil: a served query runs once, fault-free, and New refuses a
	// fault plan (inject faults through a cluster.Sim directly).
	Cluster cluster.Config
	// Learner, when set, closes the observe→learn→predict loop: admission
	// scoring (WRD ranking, predicted seconds), per-task predictions and
	// drift accounting come from the source's current champion models —
	// falling back to the static TaskModel/JobModel while the source is
	// cold — and every completed query's observed job and task times are
	// fed back as challenger training samples. The facade passes a
	// *learn.Registry. Callers must leave this nil (not a typed-nil
	// pointer) to disable learning.
	Learner learn.Source
	// Workers is the simulator pool size. Default 4.
	Workers int
	// CacheSize bounds the plan/estimate LRU entry count. Default 256.
	CacheSize int
	// Observer receives serve metrics and prediction drift; nil
	// disables instrumentation at zero cost.
	Observer *obs.Observer
	// Spans, when set, records one request-scoped span tree per admitted
	// submission: cache lookup, SWRD admission, the simulator run (jobs,
	// tasks, scheduler decisions) and the learn feedback, all on the
	// run's deterministic virtual timeline. Nil disables tracing at zero
	// cost — pool simulators then run with no observer attached.
	Spans *obs.SpanStore
}

// Result is one served query's outcome.
type Result struct {
	// ID is the engine-assigned submission id ("q000042").
	ID string
	// SQL is the normalized query text the cache keyed on.
	SQL string
	// CacheHit reports whether compile+estimate came from the cache
	// (including joining another submission's in-flight computation).
	CacheHit bool
	// WRD is the query's Weighted Resource Demand (Eq. 10) at admission.
	WRD float64
	// PredictedSec is the model-predicted standalone response time
	// (0 when the engine has no task model).
	PredictedSec float64
	// SimSec is the simulated response time on the pool simulator.
	SimSec float64
	// Jobs, Maps and Reduces describe the executed plan.
	Jobs, Maps, Reduces int
	// ModelVersion is the learner registry's champion version at
	// admission; 0 without online learning (or while the registry is
	// cold).
	ModelVersion int
}

// Pending is one accepted submission awaiting completion — the slice of
// Ticket the TCP frontend consumes, so a frontend test can resolve
// tickets by hand.
type Pending interface {
	// ID returns the submission id.
	ID() string
	// Wait blocks until the query completes or ctx is canceled.
	Wait(ctx context.Context) (Result, error)
}

// Backend is one serving engine as the TCP frontend drives it. The
// frontend never closes it: whoever built the engine drains it, after
// the frontend has stopped submitting.
type Backend interface {
	// Submit admits one query for serving.
	Submit(ctx context.Context, sql string, seed uint64) (Pending, error)
	// Stats snapshots the engine's counters.
	Stats() Stats
}

// Ticket is a pending submission. Exactly one completion is delivered
// per ticket; Wait may be called from any goroutine, any number of
// times, and always agrees.
type Ticket struct {
	id   string
	seq  uint64
	seed uint64
	ctx  context.Context

	est      *selectivity.QueryEstimate
	sql      string
	wrd      float64
	predSec  float64
	version  int
	cacheHit bool
	span     *obs.QuerySpan // nil unless Config.Spans is set

	done chan struct{}
	res  Result
	err  error
}

// ID returns the engine-assigned submission id.
func (t *Ticket) ID() string { return t.id }

// Done returns a channel closed when the query completes (successfully
// or not).
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Wait blocks until the query completes or ctx is canceled. A ctx
// cancellation abandons only this Wait — the query itself is governed
// by the context passed to Submit.
func (t *Ticket) Wait(ctx context.Context) (Result, error) {
	select {
	case <-t.done:
		return t.res, t.err
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// Stats is a point-in-time snapshot of the engine's counters.
type Stats struct {
	Submitted uint64 // submissions accepted into the admission queue
	Completed uint64 // queries served to completion
	Canceled  uint64 // submissions abandoned by context cancellation
	Rejected  uint64 // submissions refused by a full queue
	Errors    uint64 // parse/compile/estimate failures

	CacheHits      uint64
	CacheMisses    uint64
	CacheEvictions uint64
	CacheEntries   int
	// CacheSpellings counts raw texts the plan cache's exact-text tier
	// remembers; never more than maxSpellings per cache entry.
	CacheSpellings int

	QueueDepth int // tickets awaiting a pool worker
	Inflight   int // tickets on pool simulators right now
	Workers    int
}

// Engine is the concurrent query-serving engine. See the package
// comment for the pipeline.
type Engine struct {
	cfg   Config
	cache *planCache
	pred  cluster.TaskTimePredictor
	slots predict.Slots
	ov    predict.Overheads

	mu       sync.Mutex
	cond     *sync.Cond
	queue    admitHeap
	seq      uint64
	closed   bool
	inflight int
	st       Stats

	wg sync.WaitGroup
}

// New builds and starts an engine: the worker pool is live on return.
func New(cfg Config) (*Engine, error) {
	if cfg.Estimator == nil {
		return nil, errors.New("serve: Config.Estimator is required")
	}
	if cfg.Cluster.Faults != nil {
		return nil, &cluster.ConfigError{Reason: "Faults is set; the serving engine runs every query fault-free"}
	}
	if err := cfg.Cluster.Check(); err != nil {
		return nil, err
	}
	if cfg.Schemas == nil {
		cfg.Schemas = dataset.AllSchemas()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 256
	}
	e := &Engine{cfg: cfg, cache: newPlanCache(cfg.CacheSize)}
	e.cond = sync.NewCond(&e.mu)
	e.pred = cluster.ConstantPredictor(1)
	if cfg.TaskModel != nil {
		e.pred = cfg.TaskModel
	}
	e.slots, e.ov = core.Capacity(cfg.Cluster)
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e, nil
}

// Submit normalizes and admits one query: parse, cached
// compile+estimate (single-flight), WRD ranking, enqueue. The returned
// ticket completes when a pool worker has served the query. ctx governs
// the whole submission — cancel it and the query is skipped if queued,
// aborted if running.
//
// seed drives the query's hidden ground-truth cost model, so a fixed
// (sql, seed) pair simulates identically regardless of pool scheduling.
func (e *Engine) Submit(ctx context.Context, sql string, seed uint64) (*Ticket, error) {
	if ctx == nil {
		// Normalize once at the API boundary so no downstream path has
		// to nil-check the ticket's context again.
		ctx = context.Background() //lint:allow saqpvet/ctxleak nil Submit ctx explicitly opts out of cancellation
	}
	o := e.cfg.Observer
	o.Count(obs.MServeSubmissions)
	// A text the cache has seen names its entry directly; any other
	// spelling is parsed and normalized to the key — the one identity —
	// and remembered for next time if it is not mostly padding.
	ent, owner := e.cache.lookupText(sql), false
	if ent == nil {
		q, err := query.Parse(sql)
		if err != nil {
			o.Count(obs.MServeErrors)
			e.count(func(s *Stats) { s.Errors++ })
			return nil, err
		}
		// The key is CacheKey(q.String(), fingerprint), rendered into one
		// buffer and converted once.
		key := q.Append(make([]byte, 0, 512))
		text := sql
		if len(text) > maxSpellingBloat*len(key) {
			text = ""
		}
		key = appendCacheKey(key, e.cfg.CatalogFingerprint)
		var evicted int
		ent, owner, evicted = e.cache.lookup(string(key), text)
		for i := 0; i < evicted; i++ {
			o.Count(obs.MServeCacheEvictions)
		}
		if owner {
			o.Count(obs.MServeCacheMisses)
			e.compute(ent, q)
		}
	}
	if !owner {
		// A waiter that joined an in-flight computation paid no compile.
		o.Count(obs.MServeCacheHits)
		select {
		case <-ent.ready:
		case <-ctx.Done():
			o.Count(obs.MServeCancellations)
			o.Set(obs.MServeInflight, float64(e.inflightNow()))
			e.count(func(s *Stats) { s.Canceled++ })
			return nil, ctx.Err()
		}
	}
	if ent.err != nil {
		o.Count(obs.MServeErrors)
		e.count(func(s *Stats) { s.Errors++ })
		return nil, ent.err
	}
	// Without a learner the scores were cached with the plan; with one
	// they are the current champion's.
	wrd, predSec, version := ent.wrd, ent.predSec, 0
	if e.cfg.Learner != nil {
		wrd, predSec, version, _ = e.Score(ent.est)
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	if len(e.queue) >= QueueCap {
		e.st.Rejected++
		e.mu.Unlock()
		o.Count(obs.MServeRejections)
		return nil, ErrQueueFull
	}
	e.seq++
	t := &Ticket{
		id:       ticketID(e.seq),
		seq:      e.seq,
		seed:     seed,
		ctx:      ctx,
		est:      ent.est,
		sql:      cacheKeySQL(ent.key, e.cfg.CatalogFingerprint),
		wrd:      wrd,
		predSec:  predSec,
		version:  version,
		cacheHit: !owner,
		done:     make(chan struct{}),
	}
	// The root span opens before the ticket is visible to the pool (a
	// worker may read t.span the moment it is pushed).
	if st := e.cfg.Spans; st != nil {
		st.Begin()
		t.span = obs.BeginQuerySpan(
			obs.TraceID(ent.key, t.seq), t.id,
			obs.AttrStr("seed", strconv.FormatUint(seed, 10)),
			obs.AttrInt("model_version", version),
		)
		t.span.Event(obs.SpanKindCache, "plan-cache",
			obs.AttrBool("hit", t.cacheHit))
		t.span.Event(obs.SpanKindAdmission, "swrd-admission",
			obs.AttrFloat("wrd", wrd), obs.AttrFloat("pred_sec", predSec),
			obs.AttrInt("queue_depth", len(e.queue)+1))
	}
	heap.Push(&e.queue, t)
	e.st.Submitted++
	depth := len(e.queue)
	e.mu.Unlock()
	o.Observe(obs.MServeAdmittedWRD, t.wrd)
	o.Set(obs.MServeQueueDepth, float64(depth))
	e.cond.Signal()
	return t, nil
}

// ticketID renders a submission sequence number as fmt's "q%06d".
func ticketID(seq uint64) string {
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], seq, 10)
	id := append(make([]byte, 0, 21), "q00000"[:1+max(0, 6-len(d))]...)
	return string(append(id, d...))
}

// CacheKey is the identity under which two submissions are the same
// query: normalized SQL (query.Query.String) plus the fingerprint of
// the statistics the estimate was computed over. The plan cache looks
// entries up by it and obs.TraceID hashes it into a trace id's prefix,
// so texts that share a cache entry share that prefix.
func CacheKey(normSQL, catalogFP string) string {
	return string(appendCacheKey([]byte(normSQL), catalogFP))
}

// appendCacheKey completes a cache key in place: norm holds the normalized
// text (query.Query.Append), and a NUL and the catalog fingerprint follow
// it. It is the key's one layout; cacheKeySQL reads it back.
func appendCacheKey(norm []byte, catalogFP string) []byte {
	return append(append(norm, 0), catalogFP...)
}

// cacheKeySQL is appendCacheKey's inverse: the normalized text of a key
// built over catalogFP, without a copy.
func cacheKeySQL(key, catalogFP string) string {
	return key[:len(key)-1-len(catalogFP)]
}

// compute fills a cache entry the caller owns: the estimate, and the
// scores (WRD + predicted standalone seconds) when no learner can change
// them.
func (e *Engine) compute(ent *cacheEntry, q *query.Query) {
	defer e.cache.publish(ent)
	est, err := e.estimate(q)
	if err != nil {
		ent.err = err
		return
	}
	ent.est = est
	if e.cfg.Learner == nil {
		// No champion can replace the static model: score once per plan.
		ent.wrd, ent.predSec, _, _ = e.Score(est)
	}
}

// estimate resolves, compiles and estimates q, and refuses a plan over
// cluster.MaxQueryTasks before any lane sizes a slab for it.
func (e *Engine) estimate(q *query.Query) (*selectivity.QueryEstimate, error) {
	if err := query.Resolve(q, e.cfg.Schemas); err != nil {
		return nil, err
	}
	d, err := plan.Compile(q)
	if err != nil {
		return nil, err
	}
	est, err := e.cfg.Estimator.EstimateQuery(d)
	if err != nil {
		return nil, err
	}
	if err := cluster.CheckTaskBound(est); err != nil {
		return nil, err
	}
	return est, nil
}

// Score is the one place an estimate becomes admission scores — Weighted
// Resource Demand (Eq. 10) and predicted standalone seconds on this
// engine's cluster — and the model version a submission scored now is
// stamped with: the learner's current champion when online learning is
// on and a champion exists (one Champion() snapshot), the static task
// model otherwise. ok is false when there is no task model to score with
// (an untrained engine serves FIFO). Submit and the wire's EXPLAIN both
// score through it, so EXPLAIN shows what a SUBMIT of the same text
// would be admitted with.
func (e *Engine) Score(est *selectivity.QueryEstimate) (wrd, predSec float64, version int, ok bool) {
	tm := e.cfg.TaskModel
	if L := e.cfg.Learner; L != nil {
		var champ *predict.TaskModel
		if version, _, champ = L.Champion(); champ != nil {
			tm = champ
		}
	}
	if tm == nil {
		return 0, 0, version, false
	}
	return tm.WRD(est), tm.PredictQuery(est, e.slots, e.ov), version, true
}

// count applies a mutation to the stats under the engine lock.
func (e *Engine) count(f func(*Stats)) {
	e.mu.Lock()
	f(&e.st)
	e.mu.Unlock()
}

// inflightNow reads the in-flight count for observer gauges.
func (e *Engine) inflightNow() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.inflight
}

// lane is what one pool worker owns for its lifetime and rebuilds in
// place per ticket: the simulator, the query laid out on it, and the
// feature buffer feedback writes every sample into.
type lane struct {
	sim  cluster.Sim
	q    cluster.Query
	feat [4]float64
}

// simulate lays est out on the lane as query id, with task times drawn
// from seed's cost model and predicted by pred, and runs it alone on cc,
// observed by o (nil for none) and stopped early if ctx is done. Alone, a
// compiled plan (a chain) offers each pick one candidate, so every policy
// schedules it alike; SWRD labels the run's decisions.
func (w *lane) simulate(ctx context.Context, cc cluster.Config, id string, est *selectivity.QueryEstimate,
	seed uint64, pred cluster.TaskTimePredictor, o *obs.Observer) error {
	w.q.Rebuild(id, est, trace.NewDefaultCostModel(seed), pred)
	w.sim.Reset(cc, sched.SWRD{})
	w.sim.SetObserver(o)
	w.sim.Submit(&w.q, 0)
	_, err := w.sim.RunContext(ctx)
	return err
}

// release drops the lane, simulator and all, once its query's slabs hold
// more than slab.RetainBytes (the rule the estimator's scratch
// follows), so a worker that served one outsized query does not keep its
// layout until shutdown; the next ticket grows slabs of its own size.
func (w *lane) release() {
	if w.q.SlabBytes() > slab.RetainBytes {
		*w = lane{}
	}
}

// worker serves admitted tickets until the engine closes and drains, on
// one lane it owns for its lifetime.
func (e *Engine) worker() {
	defer e.wg.Done()
	w := new(lane)
	for {
		t := e.next()
		if t == nil {
			return
		}
		e.run(w, t)
	}
}

// next blocks for the smallest-WRD admitted ticket, or nil once the
// engine is closed and the queue drained.
func (e *Engine) next() *Ticket {
	e.mu.Lock()
	for len(e.queue) == 0 && !e.closed {
		e.cond.Wait()
	}
	if len(e.queue) == 0 {
		e.mu.Unlock()
		return nil
	}
	t := heap.Pop(&e.queue).(*Ticket)
	e.inflight++
	depth, inflight := len(e.queue), e.inflight
	e.mu.Unlock()
	o := e.cfg.Observer
	o.Set(obs.MServeQueueDepth, float64(depth))
	o.Set(obs.MServeInflight, float64(inflight))
	return t
}

// run executes one ticket on the worker's lane — its simulator reset and
// its query rebuilt for the ticket — and delivers its completion.
func (e *Engine) run(w *lane, t *Ticket) {
	// Submit normalized the context, so t.ctx is never nil here.
	select {
	case <-t.ctx.Done():
		e.finish(t, Result{}, t.ctx.Err())
		return
	default:
	}
	// Serve this query from the learner's champion models when online
	// learning is on and a champion exists; static models otherwise.
	// One snapshot per run: the tasks are predicted and the jobs' drift
	// scored by the same champion.
	pred, jm, served := e.pred, e.cfg.JobModel, 0
	if L := e.cfg.Learner; L != nil {
		v, j, tm := L.Champion()
		served = v
		if tm != nil {
			pred = tm
		}
		if j != nil {
			jm = j
		}
	}
	// With tracing on, the run goes under a spans-only observer that
	// appends its jobs, tasks and scheduler decisions to the ticket's own
	// tree without touching the shared metrics registry — the simulated
	// schedule is identical either way, only observation is added.
	var runObs *obs.Observer
	if t.span != nil {
		t.span.BeginRun()
		runObs = &obs.Observer{Spans: t.span}
	}
	defer w.release()
	if err := w.simulate(t.ctx, e.cfg.Cluster, t.id, t.est, t.seed, pred, runObs); err != nil {
		e.finish(t, Result{}, err)
		return
	}
	cq := &w.q
	if t.span != nil {
		t.span.EndRun(cq.ResponseTime())
	}
	core.RecordJobDrift(e.cfg.Observer, jm, t.est, cq)
	if L := e.cfg.Learner; L != nil {
		feedback(L, t.est, cq, &w.feat)
		if t.span != nil {
			t.span.Event(obs.SpanKindFeedback, "learn-feedback",
				obs.AttrInt("jobs", len(cq.Jobs)),
				obs.AttrInt("registry_version", served))
		}
	}
	res := Result{
		ID: t.id, SQL: t.sql, CacheHit: t.cacheHit,
		WRD: t.wrd, PredictedSec: t.predSec,
		SimSec: cq.ResponseTime(), Jobs: len(cq.Jobs),
		ModelVersion: t.version,
	}
	for _, j := range cq.Jobs {
		res.Maps += len(j.Maps)
		res.Reduces += len(j.Reds)
	}
	e.finish(t, res, nil)
}

// learnTasksPerGroup caps how many task observations one task group
// feeds back per completed job. A group's tasks share features (volumes
// split evenly), so a bounded sample per group keeps feedback O(groups)
// without changing the fitted coefficients' expectation — the same
// rationale as the offline corpus's per-group sampling.
const learnTasksPerGroup = 8

// feedback feeds one completed query's observed job and task times into
// the online-learning source, writing every sample's features into buf
// (Source's features are valid only for the call).
func feedback(l learn.Source, est *selectivity.QueryEstimate, cq *cluster.Query, buf *[4]float64) {
	for ji, je := range est.Jobs {
		sj := cq.Jobs[ji]
		if sec := sj.DoneTime - sj.SubmitTime; sec > 0 {
			l.ObserveJob(je.Job.Type, predict.AppendJobFeatures(buf[:0], je), sec)
		}
		op, pf := je.Job.Type, je.PFactor()
		sj.EachSample(je, learnTasksPerGroup, func(g selectivity.TaskGroup, tk *cluster.Task) {
			if tk.EndTime > tk.StartTime {
				l.ObserveTask(op, tk.Reduce, predict.AppendTaskFeatures(buf[:0], op, g.InBytes, g.OutBytes, pf),
					tk.EndTime-tk.StartTime)
			}
		})
	}
}

// finish delivers a ticket's completion exactly once and updates
// counters per outcome. Completed and errored queries seal their span
// tree into the store; cancellations abandon the tree (it is incomplete
// by definition).
func (e *Engine) finish(t *Ticket, res Result, err error) {
	t.res, t.err = res, err
	canceled := err != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
	if t.span != nil && !canceled {
		if err == nil {
			e.cfg.Spans.Add(t.span.Finish(obs.AttrFloat("sim_sec", res.SimSec)))
		} else {
			e.cfg.Spans.Add(t.span.Finish(obs.AttrStr("error", err.Error())))
		}
	}
	e.mu.Lock()
	e.inflight--
	inflight := e.inflight
	switch {
	case err == nil:
		e.st.Completed++
	case canceled:
		e.st.Canceled++
	default:
		e.st.Errors++
	}
	e.mu.Unlock()
	o := e.cfg.Observer
	switch {
	case err == nil:
		o.Count(obs.MServeCompletions)
		o.Observe(obs.MServeSimResponseSec, res.SimSec)
		o.Set(obs.MServeInflight, float64(inflight))
	case canceled:
		o.Count(obs.MServeCancellations)
		o.Set(obs.MServeInflight, float64(inflight))
	default:
		o.Count(obs.MServeErrors)
	}
	close(t.done)
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	hits, misses, evictions := e.cache.counters()
	e.mu.Lock()
	s := e.st
	s.QueueDepth = len(e.queue)
	s.Inflight = e.inflight
	s.Workers = e.cfg.Workers
	e.mu.Unlock()
	s.CacheHits, s.CacheMisses, s.CacheEvictions = hits, misses, evictions
	s.CacheEntries, s.CacheSpellings = e.cache.len()
	return s
}

// Close stops admissions and drains gracefully: queued and in-flight
// queries run to completion (or to their contexts' cancellation), then
// the pool exits. Close blocks until the pool has exited and is safe to
// call more than once.
func (e *Engine) Close() error {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.cond.Broadcast()
	e.wg.Wait()
	return nil
}
