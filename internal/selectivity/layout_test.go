package selectivity_test

import (
	"fmt"
	"testing"

	"saqp/internal/catalog"
	"saqp/internal/dataset"
	"saqp/internal/plan"
	"saqp/internal/query"
	"saqp/internal/selectivity"
	"saqp/internal/workload"
)

// layoutQueries is how many generated texts TestEstimateTaskLayout checks.
const layoutQueries = 200

// layoutDAGs returns the seven TPC-H texts, a MAPJOIN sink (its own
// map-only broadcast job) and the first layoutQueries generated texts that
// compile, each labelled.
func layoutDAGs(t *testing.T) (dags []*plan.DAG, labels []string) {
	t.Helper()
	for _, name := range workload.TPCHNames() {
		sql, err := workload.TPCHSQL(name)
		if err != nil {
			t.Fatal(err)
		}
		dags, labels = append(dags, compileSQL(t, sql)), append(labels, name)
	}
	dags = append(dags, compileSQL(t, `SELECT /*+ MAPJOIN(nation) */ s_name FROM nation JOIN supplier ON s_nationkey = n_nationkey WHERE n_name <> 'CHINA'`))
	labels = append(labels, "mapjoin sink")
	g := workload.NewGenerator(7)
	for tries := 0; len(dags) < 8+layoutQueries && tries < 64*layoutQueries; tries++ {
		q, _, err := g.RandomQuery()
		if err != nil {
			continue
		}
		pq, err := query.Parse(q.String())
		if err != nil {
			continue
		}
		if err := query.Resolve(pq, dataset.AllSchemas()); err != nil {
			continue
		}
		d, err := plan.Compile(pq)
		if err != nil {
			continue
		}
		dags, labels = append(dags, d), append(labels, fmt.Sprintf("generated %d", len(dags)-8))
	}
	if len(dags) != 8+layoutQueries {
		t.Fatalf("%d generated texts compile, want %d", len(dags)-8, layoutQueries)
	}
	return dags, labels
}

// TestEstimateTaskLayout holds the estimator to the layout guarantee its
// consumers rely on instead of re-deriving it: every job has at least one
// map group, every group at least one task, map counts sum to NumMaps,
// and reduce groups are empty exactly for a map-only job and otherwise sum
// to NumReduces. It covers a MAPJOIN sink and a folded MAPJOIN (Q14), and
// generated queries, at SF 1 and 100 (where shuffles are large enough for
// a hot reducer), 64 and 1,024 buckets, with reduce skew on and off;
// it fails if no job exercises a map-only phase, several map groups or a
// hot reduce group.
func TestEstimateTaskLayout(t *testing.T) {
	dags, labels := layoutDAGs(t)
	var mapOnly, joins, hot, folded int
	for _, cfg := range [...]struct {
		sf      float64
		buckets int
	}{{1, 64}, {1, 1024}, {100, 64}, {100, 1024}} {
		cat := catalog.FromSchemas(sortedSchemas(), cfg.sf, cfg.buckets)
		for _, noSkew := range []bool{false, true} {
			est := selectivity.NewEstimator(cat, selectivity.Config{DisableReduceSkew: noSkew})
			for i, d := range dags {
				qe, err := est.EstimateQuery(d)
				if err != nil {
					t.Fatalf("%s: %v", labels[i], err)
				}
				for _, je := range qe.Jobs {
					at := fmt.Sprintf("%s %s (SF %g, %d buckets, reduce skew off %v)", labels[i], je.Job.ID, cfg.sf, cfg.buckets, noSkew)
					maps, reds := groupTasks(t, at, je.MapGroups), groupTasks(t, at, je.ReduceGroups)
					if len(je.MapGroups) == 0 || maps != je.NumMaps {
						t.Errorf("%s: %d map groups of %d tasks, NumMaps %d", at, len(je.MapGroups), maps, je.NumMaps)
					}
					if je.Job.MapOnly != (len(je.ReduceGroups) == 0) || reds != je.NumReduces {
						t.Errorf("%s: map-only %v, %d reduce groups of %d tasks, NumReduces %d",
							at, je.Job.MapOnly, len(je.ReduceGroups), reds, je.NumReduces)
					}
					if je.Job.MapOnly {
						mapOnly++
					}
					if len(je.MapGroups) > 1 {
						joins++
					}
					if len(je.ReduceGroups) > 1 {
						hot++
					}
					if len(je.Job.MapJoins) > 0 && !je.Job.MapOnly {
						folded++
					}
				}
			}
		}
	}
	t.Logf("%d map-only jobs, %d with several map groups, %d with a hot reduce group, %d with a folded MAPJOIN", mapOnly, joins, hot, folded)
	if mapOnly == 0 || joins == 0 || hot == 0 || folded == 0 {
		t.Error("coverage: want each of the counts above non-zero")
	}
}

// groupTasks sums a phase's group counts, reporting a group without tasks.
func groupTasks(t *testing.T, at string, gs []selectivity.TaskGroup) int {
	n := 0
	for _, g := range gs {
		if g.Count < 1 {
			t.Errorf("%s: a task group of %d tasks", at, g.Count)
		}
		n += g.Count
	}
	return n
}
