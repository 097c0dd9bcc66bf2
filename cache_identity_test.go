package saqp

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"unicode"

	"saqp/internal/obs"
	"saqp/internal/query"
	"saqp/internal/serve"
	"saqp/internal/sim"
	"saqp/internal/workload"
)

// tpchFingerprints are sim.FNV64a(serve.CacheKey(…)) of the seven TPC-H
// texts under NewFramework(Options{}) — the prefix of every trace id
// obs.TraceID gives their submissions. A change here means a TPC-H
// text's cache key moved: its normalized rendering or the catalog
// fingerprint beside it.
var tpchFingerprints = map[string]uint64{
	"q1":  0x505813c1b6cc9ccf,
	"q11": 0xc7708abd1c7becec,
	"q14": 0xd9087477baf7516e,
	"q17": 0x566c13ee3b6f0b43,
	"q19": 0x40b31e4a63dd76f7,
	"q3":  0xd834a74a14b0f1e8,
	"q6":  0x5d7c101172f9732a,
}

// foldOutsideLiterals maps every rune outside single-quoted literals
// through fold. The TPC-H texts spell keywords in capitals and
// identifiers in lower case, so unicode.ToLower gives the keyword-case
// variant and unicode.ToUpper the identifier-case one (LINEITEM,
// L_QUANTITY) — both must fold to the raw text's key without touching
// what must not fold (string constants).
func foldOutsideLiterals(sql string, fold func(rune) rune) string {
	quoted := false
	return strings.Map(func(r rune) rune {
		if r == '\'' {
			quoted = !quoted
		}
		if quoted {
			return r
		}
		return fold(r)
	}, sql)
}

// TestCacheIdentityIsEngineHit holds serve.CacheKey to the engine's
// plan cache: a served text is a cache hit exactly when its key was
// seen before — over generated queries and whitespace/case variants of
// the TPC-H texts, whose fingerprints must also stay where they are.
func TestCacheIdentityIsEngineHit(t *testing.T) {
	fw, err := NewFramework(Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fw.NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	keyOf := func(sql string) string {
		q, err := query.Parse(sql)
		if err != nil {
			t.Fatalf("%v\n%s", err, sql)
		}
		return serve.CacheKey(q.String(), fw.statsFingerprint())
	}
	var texts []string
	for _, name := range TPCHNames() {
		raw, err := TPCHSQL(name)
		if err != nil {
			t.Fatal(err)
		}
		key := keyOf(raw)
		if got := sim.FNV64a(key); got != tpchFingerprints[name] {
			t.Errorf("%s: fingerprint %#016x, want %#016x as before", name, got, tpchFingerprints[name])
		}
		if id, want := obs.TraceID(key, 1), fmt.Sprintf("%016x-", tpchFingerprints[name]); !strings.HasPrefix(id, want) {
			t.Errorf("%s: trace id %s, want the prefix %s", name, id, want)
		}
		for _, variant := range []string{
			strings.Join(strings.Fields(raw), " "),
			"\n\t" + strings.ReplaceAll(raw, " ", "  \n") + " ",
			foldOutsideLiterals(raw, unicode.ToLower),
			foldOutsideLiterals(raw, unicode.ToUpper),
		} {
			if keyOf(variant) != key {
				t.Errorf("%s: a whitespace/case variant has its own cache key:\n%s", name, variant)
			}
			texts = append(texts, variant)
		}
		texts = append(texts, raw)
	}
	// Few enough distinct texts that the 256-entry cache never evicts, so
	// a repeat of a key can only miss if the engine keys differently.
	g := workload.NewGenerator(7)
	for n := 0; n < 60; {
		q, _, err := g.RandomQuery()
		if err != nil {
			continue
		}
		if _, err := fw.Compile(q.String()); err != nil {
			continue
		}
		texts = append(texts, q.String())
		n++
	}

	seen := map[string]bool{}
	for i, sql := range texts {
		key := keyOf(sql)
		tk, err := srv.Submit(context.Background(), sql, 1)
		if err != nil {
			t.Fatalf("text %d: Submit: %v", i, err)
		}
		res, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatalf("text %d: Wait: %v", i, err)
		}
		if res.CacheHit != seen[key] {
			t.Errorf("text %d: engine cache hit = %v, but serve.CacheKey seen before = %v\n%s", i, res.CacheHit, seen[key], sql)
		}
		seen[key] = true
	}
}
