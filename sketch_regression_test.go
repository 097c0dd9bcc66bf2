package saqp_test

import (
	"math"
	"testing"

	"saqp"
	"saqp/internal/catalog"
	"saqp/internal/dataset"
	"saqp/internal/obs"
	"saqp/internal/selectivity"
)

// TestSketchTierRegression is the facade-level contract for the
// probabilistic statistics tier: over the full golden TPC-H query set,
// estimates priced from HLL/CMS sketches must track the exact collected
// catalog within tight bounds — per-job IS and FS within 0.02 absolute,
// per-job output cardinality within 10% relative — so switching the
// estimator tier can never silently reshape a plan. Underneath that sits
// the sketch accuracy contract itself: every collected column's HLL
// distinct estimate within 5% of the exact count.
func TestSketchTierRegression(t *testing.T) {
	cat := catalog.CollectAll(dataset.TPCH(), 0.01, 2018, catalog.DefaultBuckets)
	hllCols := 0
	for _, tbl := range cat.Tables {
		for _, cs := range tbl.Columns {
			if cs.Sketch == nil || cs.Sketch.HLL == nil || cs.Distinct <= 0 {
				continue
			}
			hllCols++
			exact := float64(cs.Distinct)
			if rel := math.Abs(cs.Sketch.HLL.Estimate()-exact) / exact; rel > 0.05 {
				t.Errorf("%s.%s: HLL distinct estimate off by %.2f%% (exact %d)",
					tbl.Name, cs.Name, 100*rel, cs.Distinct)
			}
		}
	}
	if hllCols == 0 {
		t.Fatal("collected catalog carries no HLL sketches to check")
	}

	exact := saqp.NewFrameworkFromCatalog(cat, saqp.Options{})
	sk := saqp.NewFrameworkFromCatalog(cat, saqp.Options{
		Sizing: selectivity.Config{Stats: selectivity.StatsSketch},
	})

	sketchCols := 0
	for _, name := range saqp.TPCHNames() {
		sql, err := saqp.TPCHSQL(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d, err := exact.Compile(sql)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		qeE, err := exact.Estimate(d)
		if err != nil {
			t.Fatalf("%s: exact estimate: %v", name, err)
		}
		qeS, err := sk.Estimate(d)
		if err != nil {
			t.Fatalf("%s: sketch estimate: %v", name, err)
		}
		if qeE.StatsTier != selectivity.StatsExact {
			t.Fatalf("%s: exact estimate attributed to tier %q", name, qeE.StatsTier)
		}
		if qeS.StatsTier != selectivity.StatsSketch {
			t.Fatalf("%s: sketch estimate attributed to tier %q", name, qeS.StatsTier)
		}
		sketchCols += qeS.SketchCols
		if len(qeS.Jobs) != len(qeE.Jobs) {
			t.Fatalf("%s: job count diverged: sketch %d vs exact %d", name, len(qeS.Jobs), len(qeE.Jobs))
		}
		for i, je := range qeS.Jobs {
			ex := qeE.Jobs[i]
			if d := math.Abs(je.IS - ex.IS); d > 0.02 {
				t.Errorf("%s job %s: IS diverged by %.4f (sketch %.4f exact %.4f)",
					name, je.Job.ID, d, je.IS, ex.IS)
			}
			if d := math.Abs(je.FS - ex.FS); d > 0.02 {
				t.Errorf("%s job %s: FS diverged by %.4f (sketch %.4f exact %.4f)",
					name, je.Job.ID, d, je.FS, ex.FS)
			}
			if ex.OutRows > 0 {
				if rel := math.Abs(je.OutRows-ex.OutRows) / ex.OutRows; rel > 0.10 {
					t.Errorf("%s job %s: output cardinality diverged by %.1f%% (sketch %.0f exact %.0f)",
						name, je.Job.ID, 100*rel, je.OutRows, ex.OutRows)
				}
			}
		}
	}
	if sketchCols == 0 {
		t.Fatal("sketch tier never substituted an HLL distinct count across the TPC-H set")
	}
}

// TestSketchTierObservability pins the facade attribution: a framework
// priced from the sketch tier bumps saqp_sketch_estimates_total on every
// Estimate, and an exact-tier framework never does.
func TestSketchTierObservability(t *testing.T) {
	cat := catalog.CollectAll(dataset.TPCH(), 0.01, 2018, catalog.DefaultBuckets)
	reg := obs.NewRegistry()
	f := saqp.NewFrameworkFromCatalog(cat, saqp.Options{
		Sizing:   selectivity.Config{Stats: selectivity.StatsSketch},
		Observer: &obs.Observer{Metrics: reg},
	})
	sql, err := saqp.TPCHSQL("q3")
	if err != nil {
		t.Fatal(err)
	}
	d, err := f.Compile(sql)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Estimate(d); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters[obs.MSketchEstimates]; got != 1 {
		t.Fatalf("saqp_sketch_estimates_total = %v, want 1", got)
	}

	// The tier is part of the cache identity: two frameworks over the
	// same catalog but different tiers must not share plan-cache keys.
	exact := saqp.NewFrameworkFromCatalog(cat, saqp.Options{})
	if a, b := f.Catalog.Fingerprint(), exact.Catalog.Fingerprint(); a != b {
		t.Fatalf("catalog fingerprints diverged: %q vs %q", a, b)
	}
}
