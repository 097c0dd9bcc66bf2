package catalog

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"saqp/internal/dataset"
)

// TestCollectDigestPinned pins what Collect computes from generated data:
// the catalog fingerprint the serving layer folds into its cache keys and
// the SHA-256 of the encoded catalog (every histogram bucket, width, top
// share and clustered flag). Captured at the per-column Value.Key()
// collector (fe528cc); a collector that counts differently, or feeds
// histogram.Build other values or another order, moves them.
func TestCollectDigestPinned(t *testing.T) {
	all := dataset.Schemas()
	for _, tc := range []struct {
		name        string
		schemas     []*dataset.Schema
		buckets     int
		fingerprint string
		sha         string
	}{
		{"tpch+tpcds/default", all, 0, "79c8a5cd789ccfe3",
			"3319324b491f8dc79d817c3ea0f7a256b30cbdf3fffeec2f19d3ae2c9ede2759"},
		{"tpch+tpcds/8", all, 8, "8f7e8498b72789b4",
			"933e79042a744052f3b7b64f17116f84ee775e820124f84f14085eb1d389ce01"},
		{"tpch/default", dataset.TPCH(), 0, "e52b3e1c4a783ef3",
			"7bc8a00442ce85f9fe1c23fdd7314fcba9cbaeedc42f0d848efd4d67f4fdf58e"},
	} {
		c := CollectAll(tc.schemas, 0.01, 1, tc.buckets)
		enc, err := c.Encode()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sum := sha256.Sum256(enc)
		if got := c.Fingerprint(); got != tc.fingerprint {
			t.Errorf("%s: fingerprint %s, pinned %s", tc.name, got, tc.fingerprint)
		}
		if got := hex.EncodeToString(sum[:]); got != tc.sha {
			t.Errorf("%s: sha256(Encode()) %s, pinned %s", tc.name, got, tc.sha)
		}
	}
}

// TestCollectScheduleIndependent generates and collects every schema with
// the columns run inline (GOMAXPROCS 1) and spread over eight workers: the
// encoded catalogs are the same bytes. make stress runs it under -race.
func TestCollectScheduleIndependent(t *testing.T) {
	all := dataset.Schemas()
	for _, seed := range []uint64{1, 42} {
		var enc [2][]byte
		for i, procs := range []int{1, 8} {
			prev := runtime.GOMAXPROCS(procs)
			b, err := CollectAll(all, 0.01, seed, 0).Encode()
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			enc[i] = b
		}
		if !bytes.Equal(enc[0], enc[1]) {
			t.Errorf("seed %d: Encode() differs between GOMAXPROCS 1 and 8", seed)
		}
	}
}

// TestFromSchemasDigestPinned is TestCollectDigestPinned's analytic
// sibling: the SHA-256 of the encoded catalog FromSchemas derives for all 13
// schemas, at the two resolutions workload.Stats estimates at and three
// scale factors — SF 0.01 leaves the Zipf columns' domains (180 keys) below
// the 1,000-term head of their normalising sum, the others above it.
// Recorded at 5319422, which called math.Pow for every term and every
// bucket edge; a sum taken in another order, or an edge evaluated from
// another expression, moves a TopShare or a bucket count here.
func TestFromSchemasDigestPinned(t *testing.T) {
	all := dataset.Schemas()
	for _, tc := range []struct {
		sf      float64
		buckets int
		sha     string
	}{
		{0.01, 64, "092c5447147795feb2200d7334d618898378008a1d6c23387911e6d4195b9e2d"},
		{0.01, 1024, "5724e1dafc754e6137b0977652395c196993a4eb4af8bb50c2395fb52b9a5239"},
		{7.3, 64, "e5346f7994d840e6b8422237cb567f05fe8d51f397d27c27567d8eabb570b30a"},
		{7.3, 1024, "ae2d1c41c8820ca6e10f1d1d90d0a4b06808eea8c0a37859ac903605cc8c6491"},
		{100, 64, "6975259153857f3c8187ccfad6de5fd2579778b357b719ad6e90c789adc6be59"},
		{100, 1024, "8d641ce14272bbcfb7dfd76567f0297f478a2f4f38cd02ec561329cd2b88c69c"},
	} {
		enc, err := FromSchemas(all, tc.sf, tc.buckets).Encode()
		if err != nil {
			t.Fatalf("sf %g, %d buckets: %v", tc.sf, tc.buckets, err)
		}
		sum := sha256.Sum256(enc)
		if got := hex.EncodeToString(sum[:]); got != tc.sha {
			t.Errorf("sf %g, %d buckets: sha256(Encode()) %s, pinned %s", tc.sf, tc.buckets, got, tc.sha)
		}
	}
}
