package mapreduce

import (
	"runtime"
	"strings"
	"testing"

	"saqp/internal/dataset"
	"saqp/internal/plan"
	"saqp/internal/query"
)

// TestPredicateOnMissingColumnErrors: a scan predicate whose column the
// input does not carry is a plan defect the engine must name, not a filter
// that silently rejects every row.
func TestPredicateOnMissingColumnErrors(t *testing.T) {
	e := newTestEngine(t)
	d := compile(t, `SELECT l_orderkey FROM lineitem WHERE l_quantity < 11`)
	scan := &d.Jobs[0].Scans[0]
	var kept []string
	for _, c := range scan.Columns {
		if c != "l_quantity" {
			kept = append(kept, c)
		}
	}
	if len(kept) == len(scan.Columns) {
		t.Fatalf("scan columns %v do not carry the predicate column", scan.Columns)
	}
	scan.Columns = kept
	res, err := e.RunQuery(d)
	if err == nil {
		t.Fatalf("predicate on a pruned column ran and returned %d rows", res.Final.NumRows())
	}
	if want := "predicate column lineitem.l_quantity not in input"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the column (%q)", err, want)
	}
}

// crossKindSchemas are three one-purpose tables: integer keys straddling
// 1e6 (where strconv's shortest float rendering switches to an exponent),
// float keys over the same range in 0.01 steps (every hundredth row a whole
// number), and a string column.
func crossKindSchemas() map[string]*dataset.Schema {
	fixed := func(n int64) func(float64) int64 { return func(float64) int64 { return n } }
	return map[string]*dataset.Schema{
		"ti": {Name: "ti", RowsAt: fixed(20), Columns: []dataset.Column{
			{Name: "i_key", Kind: dataset.KindInt, Card: fixed(20), Dist: dataset.DistSequential, Lo: 999_990},
		}},
		"tf": {Name: "tf", RowsAt: fixed(2001), Columns: []dataset.Column{
			{Name: "f_key", Kind: dataset.KindFloat, Card: fixed(2001), Dist: dataset.DistSequential, Lo: 999_990},
		}},
		"ts": {Name: "ts", RowsAt: fixed(20), Columns: []dataset.Column{
			{Name: "s_key", Kind: dataset.KindString, Width: 8, Card: fixed(20), Dist: dataset.DistSequential},
		}},
	}
}

// TestJoinCrossKindKeys fixes what an equi-join across column kinds means.
// Integer and float keys compare numerically — under the rendered-string
// comparison 999999 matched 999999.0 ("999999" both ways) while 1000000 did
// not ("1000000" vs "1e+06") — and a string key against a numeric one is an
// error at job start, not an empty result.
func TestJoinCrossKindKeys(t *testing.T) {
	schemas := crossKindSchemas()
	for _, tc := range []struct {
		cfg   Config
		procs int // GOMAXPROCS for the run; 0 keeps it
	}{{Config{}, 0}, {Config{NumReducers: 3}, 1}} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			e := New(tc.cfg)
			for _, s := range schemas {
				e.Register(dataset.Generate(s, 1, 1))
			}
			dag := func(src string) *plan.DAG {
				t.Helper()
				q, err := query.Parse(src)
				if err != nil {
					t.Fatal(err)
				}
				if err := query.Resolve(q, schemas); err != nil {
					t.Fatal(err)
				}
				d, err := plan.Compile(q)
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			for _, src := range []string{
				`SELECT i_key, f_key FROM ti JOIN tf ON i_key = f_key`,
				`SELECT i_key, f_key FROM tf JOIN ti ON f_key = i_key`,
				`SELECT /*+ MAPJOIN(ti) */ i_key, f_key FROM ti JOIN tf ON i_key = f_key`,
				`SELECT /*+ MAPJOIN(tf) */ i_key, f_key FROM ti JOIN tf ON i_key = f_key`,
			} {
				res, err := e.RunQuery(dag(src))
				if err != nil {
					t.Fatalf("%s: %v", src, err)
				}
				f := res.Final
				if f.NumRows() != 20 {
					t.Errorf("%s: %d rows, want all 20 integer keys matched (10 below 1e6, 10 at or above)", src, f.NumRows())
				}
				ic, fc := f.Col(ref("ti.i_key")), f.Col(ref("tf.f_key"))
				for i := 0; i < int(f.NumRows()); i++ {
					if iv, fv := f.At(i, ic), f.At(i, fc); float64(iv.I) != fv.F {
						t.Errorf("%s: row %d joins %v with %v", src, i, iv, fv)
					}
				}
			}
			for _, src := range []string{
				`SELECT i_key, s_key FROM ti JOIN ts ON i_key = s_key`,
				`SELECT f_key, s_key FROM ts JOIN tf ON s_key = f_key`,
				`SELECT /*+ MAPJOIN(ts) */ i_key, s_key FROM ti JOIN ts ON i_key = s_key`,
			} {
				if res, err := e.RunQuery(dag(src)); err == nil {
					t.Errorf("%s: a string key joined a numeric one without error (%d rows)", src, res.Final.NumRows())
				} else if !strings.Contains(err.Error(), "join key") {
					t.Errorf("%s: error %q does not name the join keys", src, err)
				}
			}
		}()
	}
}
