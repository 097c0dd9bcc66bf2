package serve

import (
	"container/list"
	"context"
	"testing"

	"saqp/internal/learn"
	"saqp/internal/workload"
)

var hotSinkElem *list.Element

// TestHotPathAllocs is the runtime half of the //saqp:hotpath contract
// for the plan cache's steady-state path: a repeat lookup — by key, or
// by a remembered spelling through the text tier — must not allocate.
// The miss path (entry construction, eviction) is allowed to.
func TestHotPathAllocs(t *testing.T) {
	c := newPlanCache(4)
	if _, owner, _ := c.lookup("k", "select  K"); !owner {
		t.Fatal("first lookup should own the computation")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, probe := range []struct {
		name string
		tier map[string]*list.Element
		k    string
	}{{"key", c.entries, "k"}, {"text", c.byText, "select  K"}} {
		n := testing.AllocsPerRun(100, func() { hotSinkElem = c.hit(probe.tier, probe.k) })
		if hotSinkElem == nil {
			t.Errorf("planCache.hit misses the warm %s", probe.name)
		}
		if n != 0 {
			t.Errorf("planCache.hit by %s allocates %.0f times per call; //saqp:hotpath functions must not allocate", probe.name, n)
		}
	}
}

// TestServerHitAllocBudget bounds the whole of a cache hit — Submit,
// the worker's simulation, Wait — so a regression fails `go test`, not
// only bench's allocs_per_op. A hit with static models, no observer and
// one worker allocates 4 objects whatever the query: the Ticket, its
// done channel, its id, and the one string its jobs' "<query>/<job>" ids
// are cut from (spans and errors keep it past the run). The worker's lane
// — its cluster.Sim with the Results it returns, the cluster.Query
// rebuilt in place into its slabs, feedback's feature buffer — the cost
// model on the worker's stack, the text tier and the admission heap
// allocate nothing. Budgets are the measured counts + 5.
//
// The same hit served from a seeded learn.Registry (windows too long for
// a promotion to land inside the measurement) is held to the same
// budget: scoring from the champion at Submit, and feeding every job and
// sampled task back through the lane's feature buffer, allocate nothing.
func TestServerHitAllocBudget(t *testing.T) {
	jm, tm := models(t)
	for _, learner := range []bool{false, true} {
		cfg := config(t)
		cfg.Workers = 1
		cfg.JobModel, cfg.TaskModel = jm, tm
		if learner {
			cfg.Learner = learn.NewRegistry(learn.Config{Window: 1 << 16, Champion: jm, ChampionTasks: tm})
		}
		e := newEngine(t, cfg)
		const measured = 4.0
		for _, name := range []string{"q1", "q6", "q14", "q19", "q11", "q3", "q17"} {
			sql, err := workload.TPCHSQL(name)
			if err != nil {
				t.Fatal(err)
			}
			hit := func() {
				tk, err := e.Submit(context.Background(), sql, 7)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tk.Wait(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			hit() // compile, remember the text, warm the worker's simulator
			hit() // and the challenger's accumulators
			n := testing.AllocsPerRun(100, hit)
			t.Logf("%s, learner %v: %.0f allocations", name, learner, n)
			if n > measured+5 {
				t.Errorf("%s, learner %v: a cache hit allocates %.0f times, budget %.0f+5", name, learner, n, measured)
			}
		}
	}
}

// TestServerMissAllocBudget bounds the whole of a cache miss — parse,
// normalize, resolve, compile, estimate, score, cache insert with one
// eviction, the worker's simulation, Wait — per plan shape, so a
// regression fails `go test`, not only bench's serve_cold. A one-entry
// cache and two alternating texts make every submission a miss that
// evicts the other text's entry. Where the measured counts go, per
// shape (scan-only / join → group-by / three-job chain, both texts
// alike): query.Parse 3 / 5 / 5 (the Query and one slab per element
// kind, TestParseAllocBudget), the cache key 1 / 1 / 1 (the normalized
// text, NUL and fingerprint rendered into one stack buffer and converted
// once), query.Resolve 0, plan.Compile 6 / 7 / 7 (the DAG and one slab per
// element kind, TestCompileAllocBudget), EstimateQuery 6 / 6 / 6 (the
// estimate, its Jobs slice, its ByID map's header and group, one slab each
// of job estimates and task groups; the walk and every histogram it
// derives are pooled, TestEstimateAllocBudget), and 7 / 7 / 7 for
// scoring, the cache entry with its spelling and eviction, and the ticket
// with its job-id string (TestServerHitAllocBudget itemises those four;
// the simulated run allocates nothing). Budgets are the measured counts +
// 10.
func TestServerMissAllocBudget(t *testing.T) {
	cfg := config(t)
	cfg.Workers, cfg.CacheSize = 1, 1
	cfg.JobModel, cfg.TaskModel = models(t)
	e := newEngine(t, cfg)
	for _, shape := range []struct {
		name     string
		a, b     string
		measured float64
	}{
		{"scan-only",
			`SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_shipdate < 9000 AND l_quantity >= 10`,
			`SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderdate > 8500 AND o_totalprice < 50000`, 23},
		{"join → group-by",
			`SELECT c_nationkey, sum(o_totalprice) FROM customer JOIN orders ON o_custkey = c_custkey WHERE o_orderdate < 9000 GROUP BY c_nationkey`,
			`SELECT p_brand, sum(l_extendedprice) FROM part JOIN lineitem ON l_partkey = p_partkey WHERE l_quantity < 12 GROUP BY p_brand`, 26},
		{"three-job chain",
			`SELECT ps_partkey, sum(ps_supplycost) FROM nation JOIN supplier ON s_nationkey = n_nationkey JOIN partsupp ON ps_suppkey = s_suppkey WHERE n_name <> 'CHINA' GROUP BY ps_partkey`,
			`SELECT o_orderpriority, count(*) FROM customer JOIN orders ON o_custkey = c_custkey JOIN lineitem ON l_orderkey = o_orderkey WHERE l_quantity < 20 GROUP BY o_orderpriority`, 26},
	} {
		miss := func(sql string) {
			tk, err := e.Submit(context.Background(), sql, 7)
			if err != nil {
				t.Fatal(err)
			}
			res, err := tk.Wait(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.CacheHit {
				t.Fatalf("%s: a one-entry cache served a hit", shape.name)
			}
		}
		pair := func() { miss(shape.a); miss(shape.b) }
		pair() // warm the worker's simulator
		n := testing.AllocsPerRun(100, pair) / 2
		t.Logf("%s: %.1f allocations", shape.name, n)
		if n > shape.measured+10 {
			t.Errorf("%s: a cache miss allocates %.1f times, budget %v+10", shape.name, n, shape.measured)
		}
	}
}
