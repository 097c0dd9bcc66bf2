package query_test

import (
	"testing"

	"saqp/internal/query"
	"saqp/internal/workload"
)

// FuzzNormalize holds the normalizer to being a normal form: whatever
// text Parse accepts, the text String renders must itself parse, and
// render to the same bytes. The plan cache keys on that rendering
// (serve.CacheKey) and hands it back as Result.SQL, so a rendering that
// does not re-parse — or re-parses as a different query — is a cache
// key that names no query, or two. Seeds are the seven TPC-H texts plus
// one spelling per lexical corner the rendering has to survive: a
// constant %g prints with an exponent, a quoted quote, a hint, comments.
func FuzzNormalize(f *testing.F) {
	for _, name := range workload.TPCHNames() {
		sql, err := workload.TPCHSQL(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(sql)
	}
	for _, sql := range []string{
		"SELECT a FROM t WHERE a >= 19940101 AND b < 0.00001",
		"SELECT a FROM t WHERE s = 'it''s' AND u <> ''''",
		"select /*+ mapjoin(D) */ T.a, count(*) from T join D on T.k = D.k -- tail\n group by T.a having count(*) > 2 order by count(*) desc limit 3;",
		"SELECT sum(a/b) /* c */ FROM t x WHERE a IN (1, -2, 3.50) AND s BETWEEN 'a' AND 'b'",
	} {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := query.Parse(sql)
		if err != nil {
			return
		}
		norm := q.String()
		q2, err := query.Parse(norm)
		if err != nil {
			t.Fatalf("normalized text does not parse: %v\ninput: %q\nnorm:  %q", err, sql, norm)
		}
		if again := q2.String(); again != norm {
			t.Fatalf("normalization is not idempotent\ninput: %q\nnorm:  %q\nagain: %q", sql, norm, again)
		}
	})
}
