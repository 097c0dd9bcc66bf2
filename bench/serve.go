package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"saqp"
)

// servingWorkload describes one of the three workloads that drive a
// saqp.Server: in-process (serve_hot, serve_cold) or through the wire
// protocol on loopback (net_mixed).
type servingWorkload struct {
	loadedOps, unloadedOps int
	// net drives the server through NewNetServer with one NetClient per
	// client, with online learning and the observer on.
	net bool
	// extrasEvery, when positive, adds one EXPLAIN and one STATS after
	// every n-th SUBMIT/WAIT pair of a client.
	extrasEvery int
	// traceEvery samples one request in n on a traced run.
	traceEvery int
	// ops generates the op sequence; total is how many ops the run will
	// draw, warm-up included.
	ops func(seed uint64, total int) (opSet, error)
	// wantHitRate and wantEvictionsPerOp are what the op sequence implies
	// for the timed rounds; negative means "not implied, not checked".
	wantHitRate, wantEvictionsPerOp float64
}

func runServeHot(cfg runConfig) (*result, error) {
	w := servingWorkload{loadedOps: 10_000, unloadedOps: 2_000, traceEvery: 32,
		ops: tpchOps, wantHitRate: 1, wantEvictionsPerOp: 0}
	return w.run(cfg)
}

func runServeCold(cfg runConfig) (*result, error) {
	w := servingWorkload{loadedOps: 4_096, unloadedOps: 1_024, traceEvery: 16,
		ops: coldOps, wantHitRate: 0, wantEvictionsPerOp: 1}
	return w.run(cfg)
}

func runNetMixed(cfg runConfig) (*result, error) {
	w := servingWorkload{loadedOps: 3_000, unloadedOps: 600, traceEvery: 16,
		net: true, extrasEvery: 100, ops: zipfOps, wantHitRate: -1, wantEvictionsPerOp: -1}
	return w.run(cfg)
}

// serveEnv is one set-up: framework, server and, on net_mixed, the
// frontend and its client connections.
type serveEnv struct {
	f     *saqp.Framework
	srv   *saqp.Server
	ns    *saqp.NetServer
	conns []*saqp.NetClient
}

// setup builds the environment and returns how long each phase took.
// Server options are the zero value except for what the workload turns
// on.
func (w *servingWorkload) setup() (*serveEnv, map[string]time.Duration, error) {
	t0 := time.Now()
	opts := saqp.Options{}
	if w.net {
		opts.Observer = saqp.NewObserver(nil)
	}
	f, err := saqp.NewFramework(opts)
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	if err := f.TrainDefault(); err != nil {
		return nil, nil, err
	}
	t2 := time.Now()
	e := &serveEnv{f: f}
	e.srv, err = f.NewServer(saqp.ServerOptions{OnlineLearning: w.net})
	if err != nil {
		return nil, nil, err
	}
	if w.net {
		e.ns, err = f.NewNetServer(e.srv, saqp.NetOptions{Addr: "127.0.0.1:0"})
		if err != nil {
			return nil, nil, err
		}
		for i := 0; i < clients; i++ {
			c, err := saqp.DialNet(e.ns.Addr())
			if err != nil {
				return nil, nil, err
			}
			if err := c.Ping(); err != nil {
				return nil, nil, err
			}
			e.conns = append(e.conns, c)
		}
	}
	t3 := time.Now()
	return e, map[string]time.Duration{
		"total": t3.Sub(t0), "from_schemas": t1.Sub(t0), "fit": t2.Sub(t1),
	}, nil
}

// close tears the environment down in drain order: connections, then
// the frontend, then the engine.
func (e *serveEnv) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, c := range e.conns {
		keep(c.Quit())
		keep(c.Close())
	}
	if e.ns != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		keep(e.ns.Shutdown(ctx))
		cancel()
	}
	keep(e.srv.Close())
	return first
}

// expected is the oracle's answer for one (text, seed) pair: what a
// direct Framework.Estimate + SimulateQuery of the same SQL and seed
// gives.
type expected struct {
	simSec              float64
	jobs, maps, reduces int
}

// oracle computes every (text, seed) pair's expected result before timing
// starts, on an unobserved framework sharing env's trained models. The
// table is indexed like opSet.seeds.
func oracle(f *saqp.Framework, ops opSet) ([]expected, error) {
	of, err := saqp.NewFramework(saqp.Options{})
	if err != nil {
		return nil, err
	}
	of.JobTime, of.TaskTime = f.JobTime, f.TaskTime
	exp := make([]expected, 0, len(ops.seeds))
	for i, sql := range ops.texts {
		d, err := of.Compile(sql)
		if err != nil {
			return nil, fmt.Errorf("oracle: text %d: %w", i, err)
		}
		qe, err := of.Estimate(d)
		if err != nil {
			return nil, fmt.Errorf("oracle: text %d: %w", i, err)
		}
		x := expected{jobs: len(qe.Jobs)}
		for _, je := range qe.Jobs {
			// Task counts as cluster.BuildQuery materialises them.
			if len(je.MapGroups) == 0 {
				x.maps += max(je.NumMaps, 1)
			}
			for _, g := range je.MapGroups {
				x.maps += g.Count
			}
			if len(je.ReduceGroups) == 0 {
				x.reduces += max(je.NumReduces, 0)
			}
			for _, g := range je.ReduceGroups {
				x.reduces += g.Count
			}
		}
		for _, seed := range ops.seeds[i*ops.perText : (i+1)*ops.perText] {
			x.simSec, err = of.SimulateQuery("oracle", qe, saqp.SchedulerSWRD, seed)
			if err != nil {
				return nil, fmt.Errorf("oracle: text %d: %w", i, err)
			}
			exp = append(exp, x)
		}
	}
	return exp, nil
}

// handle is a submitted query: a ticket in-process, a ticket id on the
// wire.
type handle struct {
	t  *saqp.Ticket
	id string
}

// submitter is the one seam the client loop needs over the two ways of
// reaching a server.
type submitter interface {
	submit(sql string, seed uint64) (handle, error)
	wait(h handle) (saqp.ServeResult, error)
}

type inprocSubmitter struct{ srv *saqp.Server }

func (s inprocSubmitter) submit(sql string, seed uint64) (handle, error) {
	t, err := s.srv.Submit(context.Background(), sql, seed)
	return handle{t: t}, err
}

func (s inprocSubmitter) wait(h handle) (saqp.ServeResult, error) {
	return h.t.Wait(context.Background())
}

type wireSubmitter struct{ c *saqp.NetClient }

func (s wireSubmitter) submit(sql string, seed uint64) (handle, error) {
	id, err := s.c.Submit(sql, seed)
	return handle{id: id}, err
}

func (s wireSubmitter) wait(h handle) (saqp.ServeResult, error) { return s.c.Wait(h.id) }

// pending is one outstanding op in a client's window.
type pending struct {
	h      handle
	pair   int       // index into opSet.seeds and the oracle's table
	t0, t1 time.Time // submit call start and end
	depth  int       // sampled admission-queue depth (traced requests)
	traced bool
}

// servingRun is the state shared by a run's clients.
type servingRun struct {
	w    *servingWorkload
	env  *serveEnv
	ops  opSet
	exp  []expected
	simT float64 // SimSec comparison tolerance (wire floats carry 3 decimals)
}

// tally is what a client counts over the timed rounds.
type tally struct {
	attempted, failed, completions, busy int64
	// pairs numbers this client's SUBMIT/WAIT pairs, for trace sampling.
	pairs         int64
	errSum        float64 // Σ |PredictedSec − SimSec| ÷ SimSec
	jobs, tasks   int64
	mismatches    int64
	firstMismatch string
}

// servingCounts is what a run's counts are computed from: the clients'
// tallies, the server's statistics, the allocation counters and the
// learner's state as they stood after timed round countedRounds−1.
type servingCounts struct {
	tally
	stats                    saqp.ServeStats
	mem                      memCounters
	ops                      float64 // SUBMIT/WAIT pairs so far
	promotions, modelVersion int
}

// sumTallies adds up the clients' tallies.
func sumTallies(cs []*client) tally {
	var sum tally
	for _, c := range cs {
		sum.attempted += c.attempted
		sum.failed += c.failed
		sum.completions += c.completions
		sum.busy += c.busy
		sum.mismatches += c.mismatches
		sum.errSum += c.errSum
		sum.jobs += c.jobs
		sum.tasks += c.tasks
		if sum.firstMismatch == "" {
			sum.firstMismatch = c.firstMismatch
		}
	}
	return sum
}

// cacheRates returns the plan cache's hit rate and evictions per lookup
// between two readings of the server's statistics.
func cacheRates(before, after saqp.ServeStats) (hitRate, evictions float64) {
	lookups := float64(after.CacheHits - before.CacheHits + after.CacheMisses - before.CacheMisses)
	return float64(after.CacheHits-before.CacheHits) / lookups, float64(after.CacheEvictions-before.CacheEvictions) / lookups
}

// client is one closed-loop client goroutine's state. Everything it
// appends to is pre-allocated, so the client loop itself does not
// allocate inside a measured segment.
type client struct {
	run  *servingRun
	id   int
	sub  submitter
	wire *saqp.NetClient // nil in-process
	ring []pending
	lat  []int64 // the current segment's latencies
	tally

	explainNs, statsNs []int64
	depths             []int64 // sampled queue depths (traced run)
	tr                 *tracer // nil on an untraced run
}

// reset zeroes what warm-up counted.
func (c *client) reset() {
	c.tally = tally{}
	c.explainNs, c.statsNs, c.depths = c.explainNs[:0], c.statsNs[:0], c.depths[:0]
}

// fail counts a failed op.
func (c *client) fail(err error) {
	c.failed++
	if saqp.IsNetBusy(err) {
		c.busy++
	}
	if c.firstMismatch == "" {
		c.firstMismatch = "op failed: " + err.Error()
	}
}

// segment runs this client's share of count ops starting at op number
// first, keeping up to window tickets outstanding; latencies (submit
// call start → Wait return, waits issued oldest first) go to c.lat.
func (c *client) segment(first, count, window int, seg string, round int, traced bool) {
	r := c.run
	c.lat = c.lat[:0]
	head, n := 0, 0
	for p := first + c.id; p < first+count; p += clients {
		if n == window {
			c.complete(c.ring[head], seg, round)
			head, n = (head+1)%window, n-1
		}
		pd := pending{pair: r.ops.at(p)}
		if traced && c.tr != nil && c.pairs%int64(r.w.traceEvery) == 0 && !c.tr.rec.full() {
			pd.traced = true
			pd.depth = r.env.srv.Stats().QueueDepth
		}
		c.pairs++
		c.attempted++
		pd.t0 = time.Now()
		h, err := c.sub.submit(r.ops.sql(pd.pair), r.ops.seeds[pd.pair])
		pd.t1 = time.Now()
		if err != nil {
			c.fail(err)
			continue
		}
		pd.h = h
		c.ring[(head+n)%window] = pd
		n++
	}
	for ; n > 0; head, n = (head+1)%window, n-1 {
		c.complete(c.ring[head], seg, round)
	}
}

// complete waits for one outstanding op, checks its result against the
// oracle and, for a sampled request, records its spans and replay.
func (c *client) complete(pd pending, seg string, round int) {
	r := c.run
	tw0 := time.Now()
	res, err := c.sub.wait(pd.h)
	tw1 := time.Now()
	if err != nil {
		c.fail(err)
		return
	}
	c.completions++
	c.lat = append(c.lat, tw1.Sub(pd.t0).Nanoseconds())
	x := r.exp[pd.pair]
	if math.Abs(res.SimSec-x.simSec) > r.simT || res.Jobs != x.jobs || res.Maps != x.maps || res.Reduces != x.reduces {
		c.mismatches++
		if c.firstMismatch == "" {
			c.firstMismatch = fmt.Sprintf("%q seed %d: got sim=%v jobs=%d maps=%d reduces=%d, oracle %+v",
				r.ops.sql(pd.pair), r.ops.seeds[pd.pair], res.SimSec, res.Jobs, res.Maps, res.Reduces, x)
		}
	}
	if res.SimSec > 0 {
		c.errSum += math.Abs(res.PredictedSec-res.SimSec) / res.SimSec
	}
	c.jobs += int64(res.Jobs)
	c.tasks += int64(res.Maps + res.Reduces)
	if pd.traced {
		c.tr.request(pd, tw0, tw1, res.CacheHit, seg, round)
		if seg == segLoaded {
			c.depths = append(c.depths, int64(pd.depth))
		}
	}
	if e := r.w.extrasEvery; e > 0 && c.completions%int64(e) == 0 {
		c.extras(r.ops.sql(pd.pair))
	}
}

// extras issues net_mixed's EXPLAIN and STATS round trips.
func (c *client) extras(sql string) {
	c.attempted += 2
	t0 := time.Now()
	if _, err := c.wire.Explain(sql); err != nil {
		c.fail(err)
	}
	t1 := time.Now()
	if _, err := c.wire.Stats(); err != nil {
		c.fail(err)
	}
	t2 := time.Now()
	if len(c.explainNs) < cap(c.explainNs) {
		c.explainNs = append(c.explainNs, t1.Sub(t0).Nanoseconds())
		c.statsNs = append(c.statsNs, t2.Sub(t1).Nanoseconds())
	}
}

const (
	segLoaded   = "loaded"
	segUnloaded = "unloaded"
)

// each runs f on every client concurrently and waits for all of them.
func each(cs []*client, f func(*client)) {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			f(c)
		}(c)
	}
	wg.Wait()
}

// gather concatenates and sorts the clients' current-segment latencies
// into buf.
func gather(cs []*client, buf []int64) []int64 {
	buf = buf[:0]
	for _, c := range cs {
		buf = append(buf, c.lat...)
	}
	slices.Sort(buf)
	return buf
}

// run executes the workload: repeated set-up, oracle, warm-up, timed
// rounds, checks.
func (w *servingWorkload) run(cfg runConfig) (res *result, rerr error) {
	res = newResult(cfg)
	if cfg.opsDiv > 1 {
		w.loadedOps, w.unloadedOps = w.loadedOps/cfg.opsDiv, w.unloadedOps/cfg.opsDiv
	}
	perRound := w.loadedOps + w.unloadedOps
	ops, err := w.ops(cfg.seed, (warmupRounds+cfg.rounds)*perRound)
	if err != nil {
		return nil, err
	}

	ref, err := startReference()
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := ref.close(); cerr != nil && rerr == nil {
			res, rerr = nil, cerr
		}
	}()
	var env *serveEnv
	setups, err := measureSetups(cfg.setups, ref, func() (phases map[string]time.Duration, win window, err error) {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, win, fmt.Errorf("closing the previous set-up: %w", err)
			}
		}
		env = nil
		runtime.GC() // a set-up in a fresh process starts from an empty heap; untimed
		sw := startWindow()
		env, phases, err = w.setup()
		return phases, sw.stop(), err
	})
	if err != nil {
		return nil, err
	}
	res.SetupsRaw = setups.reps
	exp, err := oracle(env.f, ops)
	if err != nil {
		return nil, err
	}

	run := &servingRun{w: w, env: env, ops: ops, exp: exp}
	if w.net {
		run.simT = 0.00051
	}
	epoch := time.Now()
	perClient := (max(w.loadedOps, w.unloadedOps) + clients - 1) / clients
	cs := make([]*client, clients)
	for i := range cs {
		c := &client{run: run, id: i, sub: inprocSubmitter{env.srv},
			ring: make([]pending, loadedWindow), lat: make([]int64, 0, perClient)}
		if w.net {
			c.wire = env.conns[i]
			c.sub = wireSubmitter{c.wire}
			c.explainNs = make([]int64, 0, 1<<16)
			c.statsNs = make([]int64, 0, 1<<16)
		}
		cs[i] = c
	}
	// The tracers and their span buffers come into being when the first
	// traced round starts, after the control rounds.
	startTracing := func() {
		for i, c := range cs {
			c.tr = newTracer(run, epoch, uint64(i+1)<<40, maxSpans/clients)
			c.depths = make([]int64, 0, maxSpans/clients)
		}
	}

	latBuf := make([]int64, 0, max(w.loadedOps, w.unloadedOps))
	var mem memCounters
	var metricsTextNs []float64
	var before saqp.ServeStats
	var counted *servingCounts // read after round countedRounds−1
	oneRound := func(i int, traced bool) roundRaw {
		first := (warmupRounds + i) * perRound // the round's first op number
		if traced && cs[0].tr == nil {
			startTracing()
		}
		mem.begin()
		sw := startWindow()
		each(cs, func(c *client) { c.segment(first, w.loadedOps, loadedWindow, segLoaded, i, traced) })
		rr := roundRaw{Loaded: sw.stop(), LoadedOps: w.loadedOps, Traced: traced}
		tail, _ := percentileNs(gather(cs, latBuf), 0.99)
		rr.TailNs = float64(tail)
		sw = startWindow()
		each(cs, func(c *client) { c.segment(first+w.loadedOps, w.unloadedOps, 1, segUnloaded, i, traced) })
		rr.Unloaded = sw.stop()
		mem.end()
		rr.P50Ns = medianNs(gather(cs, latBuf))
		if traced && w.net {
			t := time.Now()
			if err := env.f.Obs.Metrics.WritePrometheus(io.Discard); err != nil {
				res.check(false, "WritePrometheus: %v", err)
			}
			metricsTextNs = append(metricsTextNs, float64(time.Since(t).Nanoseconds()))
		}
		if i == cfg.countedRounds()-1 {
			counted = &servingCounts{tally: sumTallies(cs), stats: env.srv.Stats(), mem: mem, ops: float64((i + 1) * perRound)}
			if l := env.srv.Learner(); l != nil {
				counted.promotions, counted.modelVersion = len(l.Promotions()), l.Version()
			}
		}
		return rr
	}
	rs, err := roundLoop(cfg, ref, oneRound, func() {
		for _, c := range cs {
			c.reset()
		}
		mem = memCounters{}
		metricsTextNs = nil
		before = env.srv.Stats()
	})
	if err != nil {
		return nil, err
	}
	after := env.srv.Stats()

	// Checks, over every timed round.
	sum := sumTallies(cs)
	for _, c := range cs {
		if c.tr != nil {
			sum.completions += c.tr.inprocCompletions
			res.check(c.tr.replayErrors == 0, "%d replays failed", c.tr.replayErrors)
		}
	}
	res.Attempted, res.Failed = sum.attempted, sum.failed
	res.check(sum.failed == 0, "%d ops failed; first: %s", sum.failed, sum.firstMismatch)
	res.check(sum.mismatches == 0, "%d results differ from the oracle; first: %s", sum.mismatches, sum.firstMismatch)
	completed := int64(after.Completed - before.Completed)
	res.check(completed == sum.completions, "Stats().Completed grew by %d, clients observed %d completions", completed, sum.completions)
	if w.wantHitRate >= 0 {
		hitRate, evictions := cacheRates(before, after)
		res.check(hitRate == w.wantHitRate, "cache hit rate %v, the op sequence implies %v", hitRate, w.wantHitRate)
		res.check(evictions == w.wantEvictionsPerOp, "%v evictions per op, the op sequence implies %v", evictions, w.wantEvictionsPerOp)
	}

	// End-to-end metrics: timings from every untraced round, counts from
	// the first countedRounds.
	rs.timeMetrics(res, "unloaded-segment median latency, median over rounds",
		"loaded-segment p99 (submit start → Wait return, oldest waited first), median over rounds")
	tail := res.Metrics["latency_tail_us"]
	tail.Note += fmt.Sprintf("; %d samples beyond p99 per round", w.loadedOps/100)
	res.Metrics["latency_tail_us"] = tail
	res.Metrics["setup_s"] = setups.metric("total", 1, "framework, TrainDefault, server (and frontend + dial): median of repeated set-ups, calibrated")
	pairs := counted.ops
	res.Metrics["allocs_per_op"] = metric{Value: float64(counted.mem.mallocs) / pairs, N: int(pairs)}
	res.Metrics["alloc_kb_per_op"] = metric{Value: float64(counted.mem.bytes) / 1024 / pairs, N: int(pairs)}
	res.Metrics["est_err"] = metric{Value: counted.errSum / float64(counted.completions), N: int(counted.completions),
		Note: "mean |PredictedSec − SimSec| ÷ SimSec over served queries"}

	// Per-layer figures that do not need spans.
	res.Metrics["predict.fit_s"] = setups.metric("fit", 1, "TrainDefault")
	res.Metrics["catalog.from_schemas_us"] = setups.metric("from_schemas", 1e6, "NewFramework")
	res.set("plan.jobs_per_query", float64(counted.jobs)/float64(counted.completions))
	res.set("cluster.tasks_per_query", float64(counted.tasks)/float64(counted.completions))
	hitRate, evictions := cacheRates(before, counted.stats)
	res.set("serve.cache_hit_rate", hitRate)
	res.set("serve.cache_evictions_per_op", evictions)
	goMetrics(res, &counted.mem, pairs)
	if w.net {
		res.set("net.busy_refusals", float64(sum.busy))
		res.set("learn.promotions", float64(counted.promotions))
		res.set("learn.model_version", float64(counted.modelVersion))
	}
	if cfg.trace {
		var explain, stats, depths []int64
		for _, c := range cs {
			res.spans = append(res.spans, c.tr.rec.spans...)
			explain = append(explain, c.explainNs...)
			stats = append(stats, c.statsNs...)
			depths = append(depths, c.depths...)
		}
		layerMetrics(res, rs, w.net)
		scale := calibScale(res.RefCPUPerOpNs)
		slices.Sort(explain)
		slices.Sort(stats)
		slices.Sort(depths)
		res.set("serve.queue_depth_p50", medianNs(depths))
		if w.net {
			res.set("net.explain_rtt_us", medianNs(explain)/1e3*scale)
			res.set("net.stats_rtt_us", medianNs(stats)/1e3*scale)
			res.set("obs.metrics_text_us", median(metricsTextNs)/1e3*scale)
		}
	}

	if err := env.close(); err != nil {
		return nil, fmt.Errorf("closing: %w", err)
	}
	res.finish()
	return res, nil
}
