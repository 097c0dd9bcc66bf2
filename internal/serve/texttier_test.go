package serve

import (
	"container/list"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode"

	"saqp/internal/cluster"
	"saqp/internal/dataset"
	"saqp/internal/sim"
	"saqp/internal/workload"
)

// checkTierInvariant holds the text tier to what it is allowed to be: a
// memo of the key lookup. Every remembered text maps to the very element
// its own CacheKey names, every entry's spellings are exactly the texts
// mapped to it, and there are at most maxSpellings per live entry. keyOf
// maps each text the test submits to its cache key.
func checkTierInvariant(t *testing.T, c *planCache, keyOf map[string]string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for text, el := range c.byText {
		if byKey, ok := c.entries[keyOf[text]]; !ok || byKey != el {
			t.Fatalf("remembered text names an element its key does not (entry live: %v):\n%s", ok, text)
		}
	}
	owned := 0
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		for _, text := range e.spellings[:e.nSpell] {
			if c.byText[text] != el {
				t.Fatalf("entry lists a spelling the tier maps elsewhere:\n%s", text)
			}
		}
		owned += e.nSpell
	}
	if owned != len(c.byText) {
		t.Fatalf("tier remembers %d texts, live entries own %d", len(c.byText), owned)
	}
	if len(c.byText) > maxSpellings*c.lru.Len() {
		t.Fatalf("%d remembered spellings for %d entries", len(c.byText), c.lru.Len())
	}
}

// TestServerTextTierInvariant drives 20 k submissions — 300 queries in
// four spellings each, a hot dozen among them — through a 16-entry cache,
// so entries are evicted and re-inserted and spellings rotate out, and
// checks after every step that the tier is still only a memo, and that
// it is invisible: hit or miss, and every counter, are what an LRU over
// CacheKey alone gives.
func TestServerTextTierInvariant(t *testing.T) {
	const queries, capacity, steps = 300, 16, 20_000
	cfg := config(t)
	cfg.CacheSize = capacity
	e := newEngine(t, cfg)
	_, fp := estimator(t)

	g := workload.NewGenerator(33)
	var texts []string
	keyOf := map[string]string{}
	for len(texts) < 4*queries {
		q, _, err := g.RandomQuery()
		if err != nil {
			t.Fatal(err)
		}
		norm := q.String()
		key := CacheKey(norm, fp)
		if _, dup := keyOf[norm]; dup {
			continue
		}
		for _, text := range []string{
			norm,
			respell(norm, unicode.ToLower, " "),
			respell(norm, func(r rune) rune { return r }, "  "),
			"\n" + norm + " ;",
		} {
			keyOf[text] = key
			texts = append(texts, text)
		}
	}

	var model list.List // reference LRU over keys, front = most recent
	var hits, misses, evictions uint64
	rng := sim.New(5)
	for step := 0; step < steps; step++ {
		pick := rng.Intn(len(texts))
		if rng.Bool(0.7) {
			pick = rng.Intn(4 * 12)
		}
		text := texts[pick]
		wantHit := false
		for el := model.Front(); el != nil; el = el.Next() {
			if el.Value == keyOf[text] {
				model.MoveToFront(el)
				wantHit = true
				break
			}
		}
		if wantHit {
			hits++
		} else {
			misses++
			model.PushFront(keyOf[text])
			if model.Len() > capacity {
				model.Remove(model.Back())
				evictions++
			}
		}
		tk, err := e.Submit(context.Background(), text, uint64(step))
		if err != nil {
			t.Fatalf("step %d: %v\n%s", step, err, text)
		}
		res, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if res.CacheHit != wantHit {
			t.Fatalf("step %d: cache hit = %v, an LRU over CacheKey says %v", step, res.CacheHit, wantHit)
		}
		if want := keyOf[text][:len(keyOf[text])-1-len(fp)]; res.SQL != want {
			t.Fatalf("step %d: Result.SQL = %q, want the normalized text %q", step, res.SQL, want)
		}
		checkTierInvariant(t, e.cache, keyOf)
	}
	st := e.Stats()
	if st.CacheHits != hits || st.CacheMisses != misses || st.CacheEvictions != evictions {
		t.Errorf("counters %d/%d/%d, an LRU over CacheKey counts %d/%d/%d (hits/misses/evictions)",
			st.CacheHits, st.CacheMisses, st.CacheEvictions, hits, misses, evictions)
	}
	if st.CacheSpellings == 0 || st.CacheSpellings > maxSpellings*st.CacheEntries {
		t.Errorf("%d remembered spellings for %d entries, want 1..%d×", st.CacheSpellings, st.CacheEntries, maxSpellings)
	}
}

// TestServerTextTierForgetsFailures: a text that parses but does not
// resolve is never remembered — each submission is a fresh miss.
func TestServerTextTierForgetsFailures(t *testing.T) {
	e := newEngine(t, config(t))
	for i := 0; i < 2; i++ {
		if _, err := e.Submit(context.Background(), "SELECT no_such_column FROM lineitem", 1); err == nil {
			t.Fatal("unresolvable query should fail at Submit")
		}
	}
	if st := e.Stats(); st.CacheMisses != 2 || st.CacheHits != 0 || st.CacheEntries != 0 || st.CacheSpellings != 0 {
		t.Errorf("two failed submissions should be two misses and leave nothing behind: %+v", st)
	}
}

// TestServerTextTierJoinsInflight: a text hit on an entry whose
// computation is still running waits on it — and gives up with its
// context — exactly as a key hit does.
func TestServerTextTierJoinsInflight(t *testing.T) {
	cfg := config(t)
	cfg.Schemas = dataset.AllSchemas()
	e := &Engine{cfg: cfg, cache: newPlanCache(4)} // no workers: tickets just queue
	e.cond = sync.NewCond(&e.mu)
	e.pred = cluster.ConstantPredictor(1)

	q := mustParse(t, q6)
	ent, owner, _ := e.cache.lookup(CacheKey(q.String(), cfg.CatalogFingerprint), q6)
	if !owner {
		t.Fatal("first lookup should own the computation")
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := e.Submit(ctx, q6, 1)
		errc <- err
	}()
	select {
	case err := <-errc:
		t.Fatalf("Submit returned (%v) while the entry it hit was still in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from the waiting text hit, got %v", err)
	}

	tkc := make(chan *Ticket, 1)
	go func() {
		tk, err := e.Submit(context.Background(), q6, 1)
		if err != nil {
			t.Error(err)
		}
		tkc <- tk
	}()
	e.compute(ent, q)
	if tk := <-tkc; tk == nil || !tk.cacheHit {
		t.Fatal("the waiter should be admitted as a cache hit once the computation publishes")
	}
	if st := e.Stats(); st.CacheMisses != 1 || st.CacheHits != 2 || st.Canceled != 1 {
		t.Errorf("one owner, two text hits, one of them canceled: %+v", st)
	}
}

// TestServerTextTierByteRule: spellings that are mostly padding — up to
// the wire's 1 MiB bulk limit — are served, hit by key, and never
// remembered, so the tier's memory stays a small multiple of the cache's.
func TestServerTextTierByteRule(t *testing.T) {
	e := newEngine(t, config(t))
	norm := mustParse(t, q6).String()
	spellings := []string{norm + strings.Repeat(" ", 2*len(norm))}
	for i := 0; i < 6; i++ {
		pad := strings.Repeat(" ", 1<<20-len(norm)-i)
		spellings = append(spellings, pad+norm, strings.Replace(norm, " ", pad, 1))
	}
	for i, sql := range spellings {
		tk, err := e.Submit(context.Background(), sql, 1)
		if err != nil {
			t.Fatalf("padded spelling %d: %v", i, err)
		}
		res, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.SQL != norm || res.CacheHit != (i > 0) {
			t.Fatalf("padded spelling %d: hit=%v SQL=%q", i, res.CacheHit, res.SQL)
		}
	}
	if st := e.Stats(); st.CacheSpellings != 0 || st.CacheEntries != 1 {
		t.Errorf("padded spellings must not be remembered: %+v", st)
	}
	// At the rule's edge the text is kept.
	tk, err := e.Submit(context.Background(), norm+strings.Repeat(" ", len(norm)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.CacheSpellings != 1 {
		t.Errorf("a text exactly %d× its normalized length should be remembered: %+v", maxSpellingBloat, st)
	}
}

// TestSingleFlightTextTier: concurrent first submissions of one text all
// miss the tier, and still compile once; the next wave never parses.
func TestSingleFlightTextTier(t *testing.T) {
	e := newEngine(t, config(t))
	const n = 32
	for wave := uint64(1); wave <= 2; wave++ {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				tk, err := e.Submit(context.Background(), q1, seed)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := tk.Wait(context.Background()); err != nil {
					t.Error(err)
				}
			}(uint64(i))
		}
		wg.Wait()
		st := e.Stats()
		if st.CacheMisses != 1 || st.CacheHits != wave*n-1 || st.CacheSpellings != 1 {
			t.Fatalf("wave %d: %d submissions of one text should cost one compile and one spelling: %+v", wave, wave*n, st)
		}
	}
}
