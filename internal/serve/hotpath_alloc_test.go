package serve

import (
	"container/list"
	"context"
	"testing"

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
// one worker allocates 8 objects whatever the query — the Ticket, its
// done channel, its id; the cluster.Query and its four slabs (jobs, job
// pointers, tasks, task pointers) — plus the run's queries slice and
// Results, plus per job its "<query>/<job>" id, its DepIDs when it has
// dependencies, and the hoard list of a job whose reduces launch at
// slowstart. The cost model lives on the worker's stack; the text tier,
// the admission heap, the simulator and its events allocate nothing.
// Budgets are the measured counts + 5.
func TestServerHitAllocBudget(t *testing.T) {
	cfg := config(t)
	cfg.Workers = 1
	cfg.JobModel, cfg.TaskModel = models(t)
	e := newEngine(t, cfg)
	for name, measured := range map[string]float64{
		"q1": 12, "q6": 12, "q14": 14, "q19": 14, "q11": 17, "q3": 19, "q17": 20,
	} {
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
		if n := testing.AllocsPerRun(100, hit); n > measured+5 {
			t.Errorf("%s: a cache hit allocates %.0f times, budget %.0f+5", name, n, measured)
		}
	}
}
