package serve

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"unicode"

	"saqp/internal/dataset"
	"saqp/internal/plan"
	"saqp/internal/query"
	"saqp/internal/workload"
)

// The identity suite: CacheKey is the claim "these two submissions are
// the same query", and every tier above it (the plan cache, the exact-text
// memo in front of it, trace ids) inherits whatever it
// gets wrong. Three properties over the generator's whole shape space
// plus the TPC-H texts, with the estimator as arbiter of "same":
//
//	(i)   the normalized text is a fixed point — it parses, and renders
//	      to itself — so the key of a text is the key of its rendering;
//	(ii)  no single-site edit that changes the estimate keeps the key
//	      (String renders everything the estimator reads);
//	(iii) no spelling variant (keyword case, identifier case, white
//	      space, comments) changes the key or the estimate.

var identitySchemas = dataset.AllSchemas()

// identityTexts returns n generated texts followed by the TPC-H texts.
func identityTexts(t *testing.T, n int) []string {
	t.Helper()
	g := workload.NewGenerator(20)
	texts := make([]string, 0, n+7)
	for len(texts) < n {
		q, _, err := g.RandomQuery()
		if err != nil {
			t.Fatal(err)
		}
		texts = append(texts, q.String())
	}
	for _, name := range workload.TPCHNames() {
		sql, err := workload.TPCHSQL(name)
		if err != nil {
			t.Fatal(err)
		}
		texts = append(texts, sql)
	}
	return texts
}

// estimateSig resolves, compiles and estimates q as it stands — the AST,
// not its rendering — and returns the per-job operator, IS and FS, or ""
// when the query does not survive (an edit may produce nonsense).
func estimateSig(t *testing.T, q *query.Query) string {
	t.Helper()
	est, _ := estimator(t)
	if err := query.Resolve(q, identitySchemas); err != nil {
		return ""
	}
	d, err := plan.Compile(q)
	if err != nil {
		return ""
	}
	qe, err := est.EstimateQuery(d)
	if err != nil {
		return ""
	}
	var b strings.Builder
	for _, je := range qe.Jobs {
		fmt.Fprintf(&b, "%s:%v:%v;", je.Job.Type, je.IS, je.FS)
	}
	return b.String()
}

func mustParse(t *testing.T, sql string) *query.Query {
	t.Helper()
	q, err := query.Parse(sql)
	if err != nil {
		t.Fatalf("%v\n%s", err, sql)
	}
	return q
}

func keyOfText(t *testing.T, sql string) string {
	_, fp := estimator(t)
	return CacheKey(mustParse(t, sql).String(), fp)
}

func TestIdentityNormalFormIsFixedPoint(t *testing.T) {
	for _, sql := range identityTexts(t, 2000) {
		norm := mustParse(t, sql).String()
		q2, err := query.Parse(norm)
		if err != nil {
			t.Fatalf("normalized text does not parse: %v\n%s", err, norm)
		}
		if again := q2.String(); again != norm {
			t.Fatalf("normalization is not idempotent:\n%s\n%s", norm, again)
		}
		if keyOfText(t, sql) != keyOfText(t, norm) {
			t.Fatalf("a text and its normalization have different cache keys:\n%s", sql)
		}
	}
}

// otherColumn returns a column of ref's table, different from ref's,
// of the same kind — the nearest thing to "the user meant the other one".
func otherColumn(ref query.ColumnRef) (string, bool) {
	s := identitySchemas[ref.Table]
	if s == nil {
		return "", false
	}
	at := s.ColumnIndex(ref.Column)
	if at < 0 {
		return "", false
	}
	for k := 1; k < len(s.Columns); k++ {
		c := s.Columns[(at+k)%len(s.Columns)]
		if c.Kind == s.Columns[at].Kind {
			return c.Name, true
		}
	}
	return "", false
}

var flipOp = map[query.CmpOp]query.CmpOp{
	query.OpLT: query.OpGE, query.OpGE: query.OpLT,
	query.OpLE: query.OpGT, query.OpGT: query.OpLE,
	query.OpEQ: query.OpNE, query.OpNE: query.OpEQ,
}

// singleSiteEdits enumerates, for the query text sql, every one-place
// semantics-changing edit the generator's vocabulary can express. Each
// edit is applied to a freshly parsed (so fully qualified) AST.
func singleSiteEdits(t *testing.T, sql string) map[string][]func(*query.Query) {
	q := mustParse(t, sql)
	edits := map[string][]func(*query.Query){}
	add := func(kind string, f func(*query.Query)) { edits[kind] = append(edits[kind], f) }
	for i, p := range q.Where {
		i := i
		if p.Op == query.OpIN {
			add("constant", func(q *query.Query) { q.Where[i].Set[0].F += 0.5 })
		} else if !p.IsJoin() && !p.Lit.IsString {
			add("constant", func(q *query.Query) { q.Where[i].Lit.F = q.Where[i].Lit.F*1.5 + 1 })
		}
		if to, ok := flipOp[p.Op]; ok && !p.IsJoin() {
			add("operator", func(q *query.Query) { q.Where[i].Op = to })
		}
		if name, ok := otherColumn(p.Left); ok && !p.IsJoin() {
			add("column", func(q *query.Query) { q.Where[i].Left.Column = name })
		}
		add("dropped predicate", func(q *query.Query) { q.Where = append(q.Where[:i:i], q.Where[i+1:]...) })
	}
	for i, s := range q.Select {
		i := i
		if s.Agg != query.AggNone && !s.Star {
			to := query.AggMax
			if s.Agg == query.AggMax {
				to = query.AggCount
			}
			add("aggregate", func(q *query.Query) { q.Select[i].Agg = to })
		}
		if name, ok := otherColumn(s.Expr.Col); ok && s.Expr.Binop == nil && !s.Star && s.Agg != query.AggNone {
			add("column", func(q *query.Query) { q.Select[i].Expr.Col.Column = name })
		}
	}
	if len(q.GroupBy) > 0 {
		if name, ok := otherColumn(q.GroupBy[0]); ok {
			old := q.GroupBy[0]
			add("column", func(q *query.Query) {
				q.GroupBy[0].Column = name
				for i := range q.Select {
					if q.Select[i].Agg == query.AggNone && q.Select[i].Expr.Col == old {
						q.Select[i].Expr.Col.Column = name
					}
				}
				for i := range q.OrderBy {
					if q.OrderBy[i].Col == old {
						q.OrderBy[i].Col.Column = name
					}
				}
			})
		}
	}
	for i := range q.Having {
		i := i
		add("constant", func(q *query.Query) { q.Having[i].Lit.F += 7 })
		add("operator", func(q *query.Query) { q.Having[i].Op = flipOp[q.Having[i].Op] })
	}
	if q.Limit >= 0 {
		add("constant", func(q *query.Query) { q.Limit = q.Limit/2 + 1 })
	}
	if len(q.Joins) > 0 {
		add("swapped join inputs", func(q *query.Query) { q.From, q.Joins[0].Table = q.Joins[0].Table, q.From })
	}
	return edits
}

func TestIdentitySemanticEditsNeverCollide(t *testing.T) {
	// sigOf remembers one estimate per cache key over every text and every
	// edit of the run, so a collision between two *different* base texts'
	// edits is caught too, not only edit-vs-original.
	sigOf := map[string]string{}
	textOf := map[string]string{}
	check := func(q *query.Query) (key, sig string) {
		sig = estimateSig(t, q)
		if sig == "" {
			return "", ""
		}
		_, fp := estimator(t)
		norm := q.String()
		key = CacheKey(norm, fp)
		if prev, seen := sigOf[key]; seen && prev != sig {
			t.Fatalf("one cache key, two estimates:\n%s\n  %s\n%s\n  %s", textOf[key], prev, norm, sig)
		}
		sigOf[key], textOf[key] = sig, norm
		return key, sig
	}
	effective := map[string]int{}
	skipped := 0
	for _, sql := range identityTexts(t, 2000) {
		baseKey, baseSig := check(mustParse(t, sql))
		if baseSig == "" {
			t.Fatalf("base text does not estimate:\n%s", sql)
		}
		for kind, fs := range singleSiteEdits(t, sql) {
			for _, f := range fs {
				q := mustParse(t, sql)
				f(q)
				key, sig := check(q)
				if sig == "" || sig == baseSig {
					skipped++ // nonsense, or the estimator cannot tell: not evidence
					continue
				}
				effective[kind]++
				if key == baseKey {
					t.Fatalf("%s edit changed the estimate but not the cache key:\n%s\n%s\n  %s\n  %s",
						kind, sql, q, baseSig, sig)
				}
			}
		}
	}
	// An aggregate edit (sum → max) is enumerated but never effective: Eq.
	// 1–6 size a group-by from its keys, not from what is folded per group.
	for _, kind := range []string{"constant", "operator", "column", "dropped predicate", "swapped join inputs"} {
		if effective[kind] == 0 {
			t.Errorf("no %s edit changed an estimate: the suite does not exercise it", kind)
		}
	}
	t.Logf("effective edits %v, skipped %d, distinct keys %d", effective, skipped, len(sigOf))
}

// respell rewrites sql outside string literals and optimizer hints:
// every rune through fold, every single space through space.
func respell(sql string, fold func(rune) rune, space string) string {
	var b strings.Builder
	for i := 0; i < len(sql); {
		switch {
		case sql[i] == '\'':
			end := i + 1 + strings.IndexByte(sql[i+1:], '\'') + 1
			b.WriteString(sql[i:end])
			i = end
		case strings.HasPrefix(sql[i:], "/*+"):
			end := i + strings.Index(sql[i:], "*/") + 2
			b.WriteString(sql[i:end])
			i = end
		case sql[i] == ' ':
			b.WriteString(space)
			i++
		default:
			b.WriteRune(fold(rune(sql[i])))
			i++
		}
	}
	return b.String()
}

func TestIdentitySpellingVariantsShareKeyAndEstimate(t *testing.T) {
	same := func(r rune) rune { return r }
	for _, sql := range identityTexts(t, 2000) {
		norm := mustParse(t, sql).String()
		key, sig := keyOfText(t, sql), estimateSig(t, mustParse(t, sql))
		if sig == "" {
			t.Fatalf("text does not estimate:\n%s", sql)
		}
		for name, variant := range map[string]string{
			"keyword case":    respell(norm, unicode.ToLower, " "),
			"identifier case": respell(norm, unicode.ToUpper, " "),
			"whitespace":      "\n\t" + respell(norm, same, " \t\r\n ") + " ;",
			"comments":        "/* lead */ " + respell(norm, same, " /* c */ ") + " -- tail",
		} {
			if got := keyOfText(t, variant); got != key {
				t.Fatalf("%s variant has its own cache key:\n%s\n%s", name, norm, variant)
			}
			if got := estimateSig(t, mustParse(t, variant)); got != sig {
				t.Fatalf("%s variant estimates differently:\n%s\n  %s\n  %s", name, variant, sig, got)
			}
		}
	}
}

// TestIdentitySubmitStoresCacheKey holds Submit's inline key to CacheKey:
// every text it admits is cached under CacheKey(q.String(), fingerprint),
// and the ticket reads the normalized text back out of that key.
func TestIdentitySubmitStoresCacheKey(t *testing.T) {
	texts := identityTexts(t, 300)
	cfg := config(t)
	cfg.CacheSize = len(texts)
	e := newEngine(t, cfg)
	want := map[string]bool{}
	for i, sql := range texts {
		norm := mustParse(t, sql).String()
		key := CacheKey(norm, cfg.CatalogFingerprint)
		want[key] = true
		tk, err := e.Submit(context.Background(), sql, uint64(i))
		if err != nil {
			t.Fatalf("Submit: %v\n%s", err, sql)
		}
		res, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatalf("Wait: %v\n%s", err, sql)
		}
		if res.SQL != norm {
			t.Fatalf("the ticket read %q out of its key, want the normalized text %q", res.SQL, norm)
		}
		e.cache.mu.Lock()
		_, ok := e.cache.entries[key]
		e.cache.mu.Unlock()
		if !ok {
			t.Fatalf("Submit did not cache the text under CacheKey(q.String(), fingerprint):\n%s", sql)
		}
	}
	if st := e.Stats(); st.CacheEntries != len(want) {
		t.Fatalf("%d cache entries for %d distinct CacheKeys", st.CacheEntries, len(want))
	}
}
