package saqp

import (
	"context"
	"strings"
	"testing"
	"unicode"

	"saqp/internal/query"
	"saqp/internal/serve"
	"saqp/internal/shardserve"
	"saqp/internal/workload"
)

// tpchFingerprints are the routing fingerprints of the seven TPC-H
// texts under NewFramework(Options{}), captured at the commit before
// the fingerprint was rebuilt on serve.CacheKey: a change here moves a
// slot and with it every -MOVED in the cluster golden transcript.
var tpchFingerprints = map[string]uint64{
	"q1":  0x505813c1b6cc9ccf, // slot 15
	"q11": 0xc7708abd1c7becec, // slot 44
	"q14": 0xd9087477baf7516e, // slot 46
	"q17": 0x566c13ee3b6f0b43, // slot 3
	"q19": 0x40b31e4a63dd76f7, // slot 55
	"q3":  0xd834a74a14b0f1e8, // slot 40
	"q6":  0x5d7c101172f9732a, // slot 42
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

// TestRoutingIdentityIsCacheIdentity holds "which shard" to "which
// cache entry": the coordinator's slot is the hash of serve.CacheKey,
// the engines' plan caches hit exactly when serve.CacheKey repeats, so
// texts sharing a cache entry share a slot — over generated queries and
// whitespace/case variants of the TPC-H texts, whose fingerprints must
// also be where they were before the two identities were one function.
func TestRoutingIdentityIsCacheIdentity(t *testing.T) {
	fw, err := NewFramework(Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := fw.NewClusterServer(ClusterOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	slots := cs.Status().Slots

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
		if got := shardserve.Fingerprint(keyOf(raw)); got != tpchFingerprints[name] {
			t.Errorf("%s: fingerprint %#016x, want %#016x as before", name, got, tpchFingerprints[name])
		}
		for _, variant := range []string{
			strings.Join(strings.Fields(raw), " "),
			"\n\t" + strings.ReplaceAll(raw, " ", "  \n") + " ",
			foldOutsideLiterals(raw, unicode.ToLower),
			foldOutsideLiterals(raw, unicode.ToUpper),
		} {
			if keyOf(variant) != keyOf(raw) {
				t.Errorf("%s: a whitespace/case variant has its own cache key:\n%s", name, variant)
			}
			texts = append(texts, variant)
		}
		texts = append(texts, raw)
	}
	// Few enough distinct texts that no instance's 64-entry cache evicts,
	// so a repeat of a key can only miss if the engine keys differently.
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

	slotOf := map[string]int{} // cache key → slot of the first text with it
	for i, sql := range texts {
		key := keyOf(sql)
		ri, err := cs.Route(sql)
		if err != nil {
			t.Fatalf("text %d: Route: %v", i, err)
		}
		if want := shardserve.SlotOf(shardserve.Fingerprint(key), slots); ri.Slot != want {
			t.Errorf("text %d routes to slot %d, its cache key hashes to %d", i, ri.Slot, want)
		}
		first, seen := slotOf[key]
		if seen && first != ri.Slot {
			t.Errorf("text %d shares a cache key with a text in slot %d but routes to slot %d", i, first, ri.Slot)
		}
		slotOf[key] = ri.Slot

		p, err := cs.Submit(context.Background(), sql, 1)
		if err != nil {
			t.Fatalf("text %d: Submit: %v", i, err)
		}
		res, err := p.Wait(context.Background())
		if err != nil {
			t.Fatalf("text %d: Wait: %v", i, err)
		}
		if res.CacheHit != seen {
			t.Errorf("text %d: engine cache hit = %v, but serve.CacheKey seen before = %v\n%s", i, res.CacheHit, seen, sql)
		}
	}
}
