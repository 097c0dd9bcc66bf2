package mapreduce

import (
	"sort"
	"testing"

	"saqp/internal/catalog"
	"saqp/internal/dataset"
	"saqp/internal/plan"
	"saqp/internal/selectivity"
)

// TestBroadcastJoinMatchesShuffleJoin is the map-side join keystone: the
// MAPJOIN-hinted plan must produce exactly the same multiset of rows as the
// reduce-side plan, while running with zero reduce tasks.
func TestBroadcastJoinMatchesShuffleJoin(t *testing.T) {
	e := newTestEngine(t)
	shuffle := run(t, e, `SELECT s_name FROM nation JOIN supplier ON s_nationkey = n_nationkey AND n_nationkey < 20`)
	broadcast := run(t, e, `SELECT /*+ MAPJOIN(nation) */ s_name FROM nation JOIN supplier ON s_nationkey = n_nationkey AND n_nationkey < 20`)

	if shuffle.Final.NumRows() != broadcast.Final.NumRows() {
		t.Fatalf("row counts differ: shuffle %d vs broadcast %d",
			shuffle.Final.NumRows(), broadcast.Final.NumRows())
	}
	// Same multiset of rows (order may differ between strategies).
	key := func(f *Frame) []string {
		si := f.Col("supplier.s_name")
		out := make([]string, 0, f.NumRows())
		for i := 0; i < int(f.NumRows()); i++ {
			out = append(out, f.At(i, si).S)
		}
		sort.Strings(out)
		return out
	}
	a, b := key(shuffle.Final), key(broadcast.Final)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestBroadcastJoinIsMapOnly(t *testing.T) {
	e := newTestEngine(t)
	res := run(t, e, `SELECT /*+ MAPJOIN(nation) */ s_name FROM nation JOIN supplier ON s_nationkey = n_nationkey`)
	st := res.Stats["J1"]
	// The map output is the job output: no shuffle amplification.
	if st.MedBytes != st.OutBytes {
		t.Fatalf("broadcast join MedBytes %d != OutBytes %d", st.MedBytes, st.OutBytes)
	}
	if st.NumMaps < 1 {
		t.Fatal("no map tasks")
	}
}

func TestBroadcastJoinDownstreamGroupby(t *testing.T) {
	// The Q11 chain with a MAPJOIN first stage must still produce correct
	// downstream results.
	e := newTestEngine(t)
	plain := run(t, e, `SELECT ps_partkey, sum(ps_supplycost) FROM nation JOIN supplier ON s_nationkey = n_nationkey
		JOIN partsupp ON ps_suppkey = s_suppkey GROUP BY ps_partkey`)
	hinted := run(t, e, `SELECT /*+ MAPJOIN(nation) */ ps_partkey, sum(ps_supplycost) FROM nation JOIN supplier ON s_nationkey = n_nationkey
		JOIN partsupp ON ps_suppkey = s_suppkey GROUP BY ps_partkey`)
	if plain.Final.NumRows() != hinted.Final.NumRows() {
		t.Fatalf("groups differ: %d vs %d", plain.Final.NumRows(), hinted.Final.NumRows())
	}
	// Group sums identical (both outputs are key-sorted by the engine).
	for i := 0; i < int(plain.Final.NumRows()); i++ {
		if plain.Final.At(i, 1).F != hinted.Final.At(i, 1).F {
			t.Fatalf("group %d sum differs", i)
		}
	}
}

func TestBroadcastJoinEstimate(t *testing.T) {
	d := compile(t, `SELECT /*+ MAPJOIN(nation) */ s_name FROM nation JOIN supplier ON s_nationkey = n_nationkey`)
	j := d.Jobs[0]
	if !j.MapOnly || j.Broadcast != "nation" {
		t.Fatalf("plan not map-only broadcast: %+v", j)
	}
	cat := catalog.FromSchemas([]*dataset.Schema{dataset.Nation(), dataset.Supplier()}, 1, 64)
	qe, err := selectivity.NewEstimator(cat, selectivity.Config{}).EstimateQuery(d)
	if err != nil {
		t.Fatal(err)
	}
	je := qe.ByID["J1"]
	if je.NumReduces != 0 {
		t.Fatalf("broadcast join has %d reduces", je.NumReduces)
	}
	if je.MedBytes != je.OutBytes {
		t.Fatalf("map-only D_med %v != D_out %v", je.MedBytes, je.OutBytes)
	}
	if je.IS < 0 || je.IS > 1 {
		t.Fatalf("IS = %v", je.IS)
	}
	// Maps come only from the probe (supplier) side, each reading the
	// broadcast table as side data.
	if len(je.MapGroups) != 1 {
		t.Fatalf("map groups = %d, want 1 (probe side only)", len(je.MapGroups))
	}
	supBytes := float64(dataset.Supplier().BytesAt(1))
	natBytes := float64(dataset.Nation().BytesAt(1))
	perMap := je.MapGroups[0].InBytes
	if perMap <= natBytes {
		t.Fatalf("per-map input %v should include the broadcast table (%v)", perMap, natBytes)
	}
	total := perMap * float64(je.MapGroups[0].Count)
	if total < supBytes {
		t.Fatalf("map group total %v below probe table %v", total, supBytes)
	}
}

func TestINPredicateEngineVsEstimator(t *testing.T) {
	e := newTestEngine(t)
	cat := fixtureCatalog()
	est := selectivity.NewEstimator(cat, selectivity.Config{BlockSize: 64 << 10})
	d := compile(t, `SELECT l_orderkey FROM lineitem WHERE l_quantity IN (1, 5, 9, 13)`)
	qe, err := est.EstimateQuery(d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunQuery(d)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(res.Stats["J1"].OutRows)
	want := qe.ByID["J1"].OutRows
	if rel := relErrF(want, got); rel > 0.15 {
		t.Fatalf("IN selectivity: est %.0f vs measured %.0f (err %.3f)", want, got, rel)
	}
}

func TestBetweenPredicateEngineVsEstimator(t *testing.T) {
	e := newTestEngine(t)
	cat := fixtureCatalog()
	est := selectivity.NewEstimator(cat, selectivity.Config{BlockSize: 64 << 10})
	d := compile(t, `SELECT l_orderkey FROM lineitem WHERE l_quantity BETWEEN 10 AND 20`)
	qe, err := est.EstimateQuery(d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunQuery(d)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(res.Stats["J1"].OutRows)
	want := qe.ByID["J1"].OutRows
	if rel := relErrF(want, got); rel > 0.10 {
		t.Fatalf("BETWEEN selectivity: est %.0f vs measured %.0f (err %.3f)", want, got, rel)
	}
}

var _ = plan.Join // keep plan import if helpers change

// TestMergedMapJoinMatchesShufflePlan executes the same logical query under
// the merged (MAPJOIN-prelude) plan and the plain shuffle plan: the final
// grouped results must be identical row for row.
func TestMergedMapJoinMatchesShufflePlan(t *testing.T) {
	e := newTestEngine(t)
	merged := run(t, e, `SELECT /*+ MAPJOIN(part) */ p_type, sum(l_extendedprice)
		FROM part JOIN lineitem ON l_partkey = p_partkey
		WHERE l_quantity < 30 GROUP BY p_type`)
	plain := run(t, e, `SELECT p_type, sum(l_extendedprice)
		FROM part JOIN lineitem ON l_partkey = p_partkey
		WHERE l_quantity < 30 GROUP BY p_type`)
	if merged.Final.NumRows() != plain.Final.NumRows() {
		t.Fatalf("group counts differ: merged %d vs plain %d",
			merged.Final.NumRows(), plain.Final.NumRows())
	}
	// Both group outputs are key-sorted; compare values directly. Column
	// names differ (J1.agg0 vs J2.agg0), so compare positionally.
	for i := 0; i < int(merged.Final.NumRows()); i++ {
		mk, pk := merged.Final.At(i, 0), plain.Final.At(i, 0)
		if mk != pk {
			t.Fatalf("group %d key differs: %v vs %v", i, mk, pk)
		}
		mv, pv := merged.Final.At(i, 1).F, plain.Final.At(i, 1).F
		// Summation order differs between the two plans; allow FP slack.
		if diff := mv - pv; diff > 1e-9*pv || diff < -1e-9*pv {
			t.Fatalf("group %d sum differs: %v vs %v", i, mv, pv)
		}
	}
	// The merged plan must actually be shorter.
	if len(merged.Stats) >= len(plain.Stats) {
		t.Fatalf("merged plan not shorter: %d vs %d jobs", len(merged.Stats), len(plain.Stats))
	}
}

// TestMergedMapJoinWithBroadcastFilter checks a filtered broadcast side
// through the merged path.
func TestMergedMapJoinWithBroadcastFilter(t *testing.T) {
	e := newTestEngine(t)
	merged := run(t, e, `SELECT /*+ MAPJOIN(n) */ ps_partkey, count(*)
		FROM nation n JOIN supplier s ON s.s_nationkey = n.n_nationkey AND n.n_nationkey < 5
		JOIN partsupp ps ON ps.ps_suppkey = s.s_suppkey
		GROUP BY ps_partkey`)
	plain := run(t, e, `SELECT ps_partkey, count(*)
		FROM nation n JOIN supplier s ON s.s_nationkey = n.n_nationkey AND n.n_nationkey < 5
		JOIN partsupp ps ON ps.ps_suppkey = s.s_suppkey
		GROUP BY ps_partkey`)
	if merged.Final.NumRows() != plain.Final.NumRows() {
		t.Fatalf("group counts differ: %d vs %d", merged.Final.NumRows(), plain.Final.NumRows())
	}
	for i := 0; i < int(merged.Final.NumRows()); i++ {
		if merged.Final.At(i, 0) != plain.Final.At(i, 0) ||
			merged.Final.At(i, 1).I != plain.Final.At(i, 1).I {
			t.Fatalf("group %d differs", i)
		}
	}
}
