package catalog

import (
	"crypto/sha256"
	"encoding/hex"
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
	all := append(dataset.TPCH(), dataset.TPCDS()...)
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
