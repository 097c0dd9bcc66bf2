package catalog_test

import (
	"fmt"
	"os"
	"testing"

	"saqp/internal/catalog"
	"saqp/internal/dataset"
	"saqp/internal/plan"
	"saqp/internal/query"
	"saqp/internal/selectivity"
)

// TestDecodeCatalogWithSketchObjects: statistics files written before the
// sketch tier was removed carry a "sketch":{hll,cms,top_count} object per
// column. testdata/catalog_pr15_sketch.json was encoded by that code
// (nation and region collected at SF 1, seed 42, 8 buckets, cut down to
// the two join columns); it must still decode to the same statistical
// identity and price the same join to the same numbers.
func TestDecodeCatalogWithSketchObjects(t *testing.T) {
	data, err := os.ReadFile("testdata/catalog_pr15_sketch.json")
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cat.Fingerprint(), "dbf01d4cfc97696"; got != want {
		t.Fatalf("Fingerprint() = %s, the encoding commit computed %s", got, want)
	}

	q, err := query.Parse(`SELECT n_regionkey, count(*) FROM nation JOIN region ON n_regionkey = r_regionkey GROUP BY n_regionkey`)
	if err != nil {
		t.Fatal(err)
	}
	if err := query.Resolve(q, dataset.AllSchemas()); err != nil {
		t.Fatal(err)
	}
	d, err := plan.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	qe, err := selectivity.NewEstimator(cat, selectivity.Config{}).EstimateQuery(d)
	if err != nil {
		t.Fatal(err)
	}
	// What EstimateQuery returned at the encoding commit. %v round-trips a
	// float64, so string equality is exact equality.
	want := []string{
		"J1 rows=30/30/25 bytes=2850/240/400 is=0.08421052631578947 fs=0.14035087719298245 maps=2 reduces=1",
		"J2 rows=25/5/5 bytes=400/80/80 is=0.2 fs=0.2 maps=1 reduces=1",
	}
	if len(qe.Jobs) != len(want) {
		t.Fatalf("%d jobs, want %d", len(qe.Jobs), len(want))
	}
	for i, je := range qe.Jobs {
		got := fmt.Sprintf("%s rows=%v/%v/%v bytes=%v/%v/%v is=%v fs=%v maps=%d reduces=%d",
			je.Job.ID, je.InRows, je.MedRows, je.OutRows, je.InBytes, je.MedBytes, je.OutBytes,
			je.IS, je.FS, je.NumMaps, je.NumReduces)
		if got != want[i] {
			t.Errorf("estimate moved:\n got  %s\n want %s", got, want[i])
		}
	}
}
