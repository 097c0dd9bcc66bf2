package mapreduce

import (
	"testing"
	"testing/quick"

	"saqp/internal/dataset"
	"saqp/internal/obs"
	"saqp/internal/sketch"
	"saqp/internal/workload"
)

// TestHashRowKeyMatchesKeyString is the invariant semi-join pruning
// rests on: the engine joins rows on Value.Key() string equality, so
// hashRowKey must equal the FNV hash of exactly those bytes for every
// kind. A divergence here would turn Bloom misses into dropped matches.
func TestHashRowKeyMatchesKeyString(t *testing.T) {
	check := func(v dataset.Value) bool {
		return hashRowKey(v) == sketch.Hash64String(v.Key())
	}
	for _, v := range []dataset.Value{
		dataset.Int(0), dataset.Int(-1), dataset.Int(9223372036854775807),
		dataset.Int(-9223372036854775808),
		dataset.Float(0), dataset.Float(-3.25), dataset.Float(1e300),
		dataset.Float(0.1), dataset.Float(-0.0000123456789),
		dataset.Str(""), dataset.Str("ALGERIA"), dataset.Str("x\x00y"),
		dataset.Date(0), dataset.Date(-400), dataset.Date(10957),
	} {
		if !check(v) {
			t.Errorf("hashRowKey(%v %s) != Hash64String(Key)", v.K, v.Key())
		}
	}
	if err := quick.Check(func(i int64, f float64, s string) bool {
		return check(dataset.Int(i)) && check(dataset.Float(f)) &&
			check(dataset.Str(s)) && check(dataset.Date(i%100000))
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// pruneQueries exercises the shuffle-join path from both directions:
// small-build/large-probe, skewed keys, and a join feeding a group-by.
var pruneQueries = []string{
	`SELECT l_orderkey, o_orderdate FROM lineitem JOIN orders ON l_orderkey = o_orderkey WHERE o_totalprice < 2000`,
	`SELECT s_name, n_name FROM supplier JOIN nation n ON s_nationkey = n_nationkey`,
	`SELECT l_orderkey, sum(l_quantity) FROM lineitem JOIN orders ON l_orderkey = o_orderkey WHERE l_quantity < 30 GROUP BY l_orderkey`,
	`SELECT ps_partkey, s_name FROM partsupp ps JOIN supplier s ON ps_suppkey = s_suppkey WHERE ps_availqty < 500`,
}

func newPruneEngine(t *testing.T, prune bool, o *obs.Observer) *Engine {
	t.Helper()
	e := New(Config{BlockSize: 64 << 10, NumReducers: 4, BloomPrune: prune, Observer: o})
	for _, rel := range fixtureRelations() {
		e.Register(rel)
	}
	return e
}

// frameEqual reports whether two frames are identical in schema, row
// order, and every value.
func frameEqual(a, b *Frame) bool {
	if len(a.Cols) != len(b.Cols) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			return false
		}
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if !a.Rows[i][j].Equal(b.Rows[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestBloomPruneEquivalence replays the join shapes above and the seven
// canonical TPC-H queries with pruning on and off and requires
// byte-identical results — the executable form of the
// zero-false-negatives acceptance gate (a dropped matching tuple would
// change the output frame). It also checks the stats bookkeeping:
// pruning can only shrink the shuffle, never touches the output, and
// reports every probe to the observer.
func TestBloomPruneEquivalence(t *testing.T) {
	queries := append([]string(nil), pruneQueries...)
	for _, name := range workload.TPCHNames() {
		sql, err := workload.TPCHSQL(name)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, sql)
	}
	base := newPruneEngine(t, false, nil)
	reg := obs.NewRegistry()
	pruned := newPruneEngine(t, true, &obs.Observer{Metrics: reg})
	var probed int64
	for _, src := range queries {
		want := run(t, base, src)
		got := run(t, pruned, src)
		if !frameEqual(got.Final, want.Final) {
			t.Fatalf("%s: pruned output diverged (%d vs %d rows)",
				src, len(got.Final.Rows), len(want.Final.Rows))
		}
		for id, ws := range want.Stats {
			gs := got.Stats[id]
			probed += gs.BloomProbed
			if gs.OutBytes != ws.OutBytes || gs.OutRows != ws.OutRows {
				t.Errorf("%s job %s: output stats changed under pruning", src, id)
			}
			if gs.MedBytes > ws.MedBytes || gs.MedRows > ws.MedRows {
				t.Errorf("%s job %s: pruning grew the shuffle (%d > %d bytes)",
					src, id, gs.MedBytes, ws.MedBytes)
			}
			if gs.BloomPruned > 0 && ws.MedRows-gs.MedRows != gs.BloomPruned {
				t.Errorf("%s job %s: MedRows shrank by %d but BloomPruned=%d",
					src, id, ws.MedRows-gs.MedRows, gs.BloomPruned)
			}
		}
	}
	if probed == 0 {
		t.Fatal("no rows were probed on a shuffle join with pruning enabled")
	}
	if got := int64(reg.Snapshot().Counters[obs.MSketchBloomProbes]); got != probed {
		t.Fatalf("observer counted %d bloom probes, engine stats %d", got, probed)
	}
}

// TestBloomPruneDropsNonMatches uses a join where most probe rows have
// no partner, so pruning must visibly shrink the shuffle.
func TestBloomPruneDropsNonMatches(t *testing.T) {
	pruned := newPruneEngine(t, true, nil)
	res := run(t, pruned, pruneQueries[0])
	var prunedRows int64
	for _, s := range res.Stats {
		prunedRows += s.BloomPruned
	}
	if prunedRows == 0 {
		t.Fatal("selective join pruned nothing; filter is not cutting shuffle volume")
	}
}
