package serve

import (
	"bytes"
	"container/heap"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"saqp/internal/catalog"
	"saqp/internal/cluster"
	"saqp/internal/dataset"
	"saqp/internal/obs"
	"saqp/internal/predict"
	"saqp/internal/selectivity"
	"saqp/internal/workload"
)

const q6 = `SELECT SUM(l_extendedprice) FROM lineitem
	WHERE l_shipdate BETWEEN 19940101 AND 19941231 AND l_discount BETWEEN 5 AND 7`

const q1 = `SELECT l_returnflag, SUM(l_quantity), SUM(l_extendedprice)
	FROM lineitem WHERE l_shipdate <= 19980902 GROUP BY l_returnflag`

var (
	estOnce sync.Once
	testEst *selectivity.Estimator
	testFP  string

	modelOnce sync.Once
	testJM    *predict.JobModel
	testTM    *predict.TaskModel
	modelErr  error
)

// estimator builds (once) a read-only estimator over the full synthetic
// catalog at SF 1, mirroring what the facade does.
func estimator(t testing.TB) (*selectivity.Estimator, string) {
	t.Helper()
	estOnce.Do(func() {
		var list []*dataset.Schema
		for _, s := range dataset.AllSchemas() {
			list = append(list, s)
		}
		cat := catalog.FromSchemas(list, 1, catalog.DefaultBuckets)
		testEst = selectivity.NewEstimator(cat, selectivity.Config{})
		testFP = cat.Fingerprint()
	})
	return testEst, testFP
}

// models trains (once) small job/task models so WRD admission ranking
// and drift recording have real coefficients.
func models(t testing.TB) (*predict.JobModel, *predict.TaskModel) {
	t.Helper()
	modelOnce.Do(func() {
		cfg := workload.DefaultCorpusConfig()
		cfg.NumQueries = 40
		c, err := workload.BuildCorpus(cfg)
		if err != nil {
			modelErr = err
			return
		}
		if testJM, err = predict.FitJobModel(c.JobSamples); err != nil {
			modelErr = err
			return
		}
		testTM, modelErr = predict.FitTaskModel(c.TaskSamples)
	})
	if modelErr != nil {
		t.Fatalf("training models: %v", modelErr)
	}
	return testJM, testTM
}

// config assembles a minimal valid Config; callers override fields.
func config(t testing.TB) Config {
	est, fp := estimator(t)
	return Config{
		Estimator:          est,
		CatalogFingerprint: fp,
		Workers:            2,
	}
}

func newEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New without Estimator should fail")
	}
}

func TestSubmitWait(t *testing.T) {
	e := newEngine(t, config(t))
	tk, err := e.Submit(context.Background(), q6, 7)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if tk.ID() == "" {
		t.Error("ticket should carry an id")
	}
	res, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if res.Jobs == 0 || res.Maps == 0 {
		t.Errorf("result should describe an executed plan, got %+v", res)
	}
	if res.SimSec <= 0 {
		t.Errorf("simulated response time should be positive, got %g", res.SimSec)
	}
	if res.CacheHit {
		t.Error("first submission of a query cannot be a cache hit")
	}
	// Wait is idempotent from any goroutine.
	res2, err := tk.Wait(context.Background())
	if err != nil || res2 != res {
		t.Errorf("repeated Wait should agree: %+v vs %+v (err %v)", res2, res, err)
	}
	st := e.Stats()
	if st.Submitted != 1 || st.Completed != 1 || st.CacheMisses != 1 {
		t.Errorf("stats after one submission: %+v", st)
	}
}

func TestParseErrorCounted(t *testing.T) {
	e := newEngine(t, config(t))
	if _, err := e.Submit(context.Background(), "SELECT FROM WHERE", 1); err == nil {
		t.Fatal("garbage SQL should fail")
	}
	if st := e.Stats(); st.Errors != 1 || st.Submitted != 0 {
		t.Errorf("parse failure should count one error, no submission: %+v", st)
	}
}

func TestResolveErrorNotSticky(t *testing.T) {
	e := newEngine(t, config(t))
	const bad = `SELECT no_such_col FROM lineitem`
	for i := 0; i < 2; i++ {
		if _, err := e.Submit(context.Background(), bad, 1); err == nil {
			t.Fatalf("submission %d of unresolvable query should fail", i)
		}
	}
	st := e.Stats()
	// A failed computation is dropped from the cache, so the retry is a
	// fresh miss, not a cached error.
	if st.CacheMisses != 2 || st.CacheHits != 0 {
		t.Errorf("errors must not be sticky in the cache: %+v", st)
	}
	if st.CacheEntries != 0 {
		t.Errorf("failed entries should be dropped, have %d", st.CacheEntries)
	}
}

// TestTaskBoundRefusalIsSticky: a plan over cluster.MaxQueryTasks (a
// 16-way lineitem self-join) is refused on the miss with a
// *cluster.TaskBoundError, before any lane lays it out. Unlike other
// failures the refusal stays cached: the repeat is a hit and refuses
// again.
func TestTaskBoundRefusalIsSticky(t *testing.T) {
	e := newEngine(t, config(t))
	for i := 0; i < 2; i++ {
		var bound *cluster.TaskBoundError
		if _, err := e.Submit(context.Background(), lineitemSelfJoin(16), 1); !errors.As(err, &bound) || !(bound.Tasks > cluster.MaxQueryTasks) {
			t.Fatalf("submission %d: err = %v, want a *cluster.TaskBoundError", i, err)
		}
	}
	if st := e.Stats(); st.CacheMisses != 1 || st.CacheHits != 1 || st.CacheEntries != 1 || st.Errors != 2 || st.Submitted != 0 {
		t.Errorf("the refusal should be cached and counted as two errors: %+v", st)
	}
}

func TestSingleFlight(t *testing.T) {
	e := newEngine(t, config(t))
	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			<-start
			tk, err := e.Submit(context.Background(), q6, seed)
			if err != nil {
				errs <- err
				return
			}
			if _, err := tk.Wait(context.Background()); err != nil {
				errs <- err
			}
		}(uint64(i))
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("submission failed: %v", err)
	}
	st := e.Stats()
	if st.CacheMisses != 1 {
		t.Errorf("%d identical submissions should cost exactly one compile, got %d misses", n, st.CacheMisses)
	}
	if st.CacheHits != n-1 {
		t.Errorf("expected %d cache hits, got %d", n-1, st.CacheHits)
	}
	if st.Completed != n {
		t.Errorf("every submission must complete: %+v", st)
	}
}

func TestCacheEviction(t *testing.T) {
	cfg := config(t)
	cfg.CacheSize = 1
	e := newEngine(t, cfg)
	for _, sql := range []string{q6, q1, q6} {
		tk, err := e.Submit(context.Background(), sql, 1)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatalf("Wait: %v", err)
		}
	}
	st := e.Stats()
	// q1 evicts q6, and the second q6 misses again and evicts q1.
	if st.CacheEvictions != 2 || st.CacheMisses != 3 || st.CacheHits != 0 {
		t.Errorf("capacity-1 cache over q6,q1,q6: %+v", st)
	}
	if st.CacheEntries != 1 {
		t.Errorf("cache should hold exactly its capacity, have %d", st.CacheEntries)
	}
}

func TestCanceledBeforeRun(t *testing.T) {
	e := newEngine(t, config(t))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tk, err := e.Submit(ctx, q6, 1)
	if err != nil {
		// The pre-canceled context may already abort the submission at
		// the cache-wait select; both outcomes are correct, but if a
		// ticket was issued it must resolve to context.Canceled.
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		return
	}
	if _, err := tk.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled submission must report context.Canceled, got %v", err)
	}
	if st := e.Stats(); st.Canceled != 1 {
		t.Errorf("cancellation should be counted: %+v", st)
	}
}

func TestWaitContextAbandons(t *testing.T) {
	e := newEngine(t, config(t))
	tk, err := e.Submit(context.Background(), q6, 1)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tk.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait with canceled context must return its error, got %v", err)
	}
	// The query itself is unaffected.
	if res, err := tk.Wait(context.Background()); err != nil || res.Jobs == 0 {
		t.Fatalf("query should still complete: %+v, %v", res, err)
	}
}

func TestQueueFullAndClosed(t *testing.T) {
	// Build an engine with no running workers so the queue fills
	// deterministically: QueueCap submissions are admitted, the next is
	// refused.
	cfg := config(t)
	cfg.Schemas = dataset.AllSchemas()
	e := &Engine{cfg: cfg, cache: newPlanCache(4)}
	e.cond = sync.NewCond(&e.mu)
	e.pred = cluster.ConstantPredictor(1)

	for i := 0; i < QueueCap; i++ {
		if _, err := e.Submit(context.Background(), q6, uint64(i)); err != nil {
			t.Fatalf("submission %d of %d should be admitted: %v", i+1, QueueCap, err)
		}
	}
	if _, err := e.Submit(context.Background(), q1, 1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submission %d: want ErrQueueFull, got %v", QueueCap+1, err)
	}
	if st := e.Stats(); st.Rejected != 1 || st.QueueDepth != QueueCap {
		t.Errorf("rejection accounting: %+v", st)
	}

	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	if _, err := e.Submit(context.Background(), q6, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestCloseDrains(t *testing.T) {
	cfg := config(t)
	cfg.Workers = 1
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var tickets []*Ticket
	for i := 0; i < 8; i++ {
		sql := q6
		if i%2 == 1 {
			sql = q1
		}
		tk, err := e.Submit(context.Background(), sql, uint64(i))
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, tk := range tickets {
		select {
		case <-tk.Done():
		default:
			t.Fatalf("ticket %d not completed after Close returned", i)
		}
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Errorf("ticket %d errored during drain: %v", i, err)
		}
	}
	if st := e.Stats(); st.Completed != 8 || st.Inflight != 0 || st.QueueDepth != 0 {
		t.Errorf("drained engine stats: %+v", st)
	}
	// Close is idempotent.
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestAdmitHeapOrder(t *testing.T) {
	var h admitHeap
	for i, wrd := range []float64{5, 1, 3, 1, 0} {
		heap.Push(&h, &Ticket{seq: uint64(i + 1), wrd: wrd})
	}
	var gotWRD []float64
	var gotSeq []uint64
	for h.Len() > 0 {
		tk := heap.Pop(&h).(*Ticket)
		gotWRD = append(gotWRD, tk.wrd)
		gotSeq = append(gotSeq, tk.seq)
	}
	wantWRD := []float64{0, 1, 1, 3, 5}
	wantSeq := []uint64{5, 2, 4, 3, 1} // WRD first, then FIFO among ties
	for i := range wantWRD {
		if gotWRD[i] != wantWRD[i] || gotSeq[i] != wantSeq[i] {
			t.Fatalf("pop order: wrd=%v seq=%v, want wrd=%v seq=%v",
				gotWRD, gotSeq, wantWRD, wantSeq)
		}
	}
}

func TestWRDRankingWithModels(t *testing.T) {
	jm, tm := models(t)
	cfg := config(t)
	cfg.TaskModel = tm
	cfg.JobModel = jm
	e := newEngine(t, cfg)
	tk, err := e.Submit(context.Background(), q6, 3)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if res.WRD <= 0 {
		t.Errorf("trained engine should rank by positive WRD, got %g", res.WRD)
	}
	if res.PredictedSec <= 0 {
		t.Errorf("trained engine should predict standalone seconds, got %g", res.PredictedSec)
	}
}

func TestFingerprintIsolatesCatalogs(t *testing.T) {
	est, fp := estimator(t)
	_ = est
	cfgA := config(t)
	cfgB := config(t)
	cfgB.CatalogFingerprint = fp + "-other"
	a := newEngine(t, cfgA)
	b := newEngine(t, cfgB)
	for _, e := range []*Engine{a, b} {
		tk, err := e.Submit(context.Background(), q6, 1)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatalf("Wait: %v", err)
		}
	}
	// Each engine keyed under its own fingerprint: both miss.
	if sa, sb := a.Stats(), b.Stats(); sa.CacheMisses != 1 || sb.CacheMisses != 1 {
		t.Errorf("distinct fingerprints must not share entries: %+v / %+v", sa, sb)
	}
}

// TestDeterministicSnapshots is the serving layer's reproducibility
// contract: identical seeds submitted in serialized order reproduce
// byte-identical metrics and drift snapshots across engines.
func TestDeterministicSnapshots(t *testing.T) {
	jm, tm := models(t)
	run := func() ([]byte, []byte) {
		o := obs.New(nil)
		cfg := config(t)
		cfg.TaskModel = tm
		cfg.JobModel = jm
		cfg.Observer = o
		cfg.Workers = 1 // serialized dispatch
		e := newEngine(t, cfg)
		for i, sql := range []string{q6, q1, q6, q1, q6} {
			tk, err := e.Submit(context.Background(), sql, uint64(1000+i%2))
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			if _, err := tk.Wait(context.Background()); err != nil {
				t.Fatalf("Wait: %v", err)
			}
		}
		e.Close()
		m, err := o.Metrics.SnapshotJSON()
		if err != nil {
			t.Fatalf("metrics snapshot: %v", err)
		}
		d, err := o.Drift.SnapshotJSON()
		if err != nil {
			t.Fatalf("drift snapshot: %v", err)
		}
		return m, d
	}
	m1, d1 := run()
	m2, d2 := run()
	if !bytes.Equal(m1, m2) {
		t.Errorf("metrics snapshots differ:\n%s\n---\n%s", m1, m2)
	}
	if !bytes.Equal(d1, d2) {
		t.Errorf("drift snapshots differ:\n%s\n---\n%s", d1, d2)
	}
	if !strings.Contains(string(m1), "saqp_serve_completions_total") {
		t.Errorf("snapshot should include serve metrics:\n%s", m1)
	}
}

// TestServerPredictsForTheClusterItSimulates sizes a cluster by node
// count alone: the pool simulators fill in 8 map + 4 reduce slots per
// node, and the predictor must see those 24 + 12 — not the 72 + 36 of the
// default testbed.
func TestServerPredictsForTheClusterItSimulates(t *testing.T) {
	cfg := config(t)
	cfg.Cluster = cluster.Config{Nodes: 3}
	e := newEngine(t, cfg)
	if want := (predict.Slots{Map: 24, Reduce: 12}); e.slots != want {
		t.Fatalf("engine predicts for %+v, its simulators run %+v", e.slots, want)
	}
}
