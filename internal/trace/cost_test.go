package trace

import (
	"math"
	"testing"
	"testing/quick"

	"saqp/internal/plan"
)

func TestExpectedMonotoneInInput(t *testing.T) {
	m := NewDefaultCostModel(1)
	prev := 0.0
	for _, mb := range []float64{16, 64, 256, 1024} {
		d := m.Expected(TaskSpec{Op: plan.Extract, InBytes: mb * 1e6, OutBytes: mb * 1e5})
		if d <= prev {
			t.Fatalf("duration not monotone at %v MB: %v <= %v", mb, d, prev)
		}
		prev = d
	}
}

func TestExpectedCalibration(t *testing.T) {
	// A 256 MB extract map task should take tens of seconds on the
	// paper-era hardware — not milliseconds, not hours.
	m := NewDefaultCostModel(1)
	d := m.Expected(TaskSpec{Op: plan.Extract, InBytes: 256 << 20, OutBytes: 64 << 20})
	if d < 3 || d > 120 {
		t.Fatalf("256MB map task = %vs, implausible", d)
	}
}

func TestOperatorOrdering(t *testing.T) {
	// For equal volumes: Join > Groupby > Extract (CPU rates).
	m := NewDefaultCostModel(1)
	spec := TaskSpec{InBytes: 128 << 20, OutBytes: 32 << 20}
	ext := spec
	ext.Op = plan.Extract
	grp := spec
	grp.Op = plan.Groupby
	jn := spec
	jn.Op = plan.Join
	de, dg, dj := m.Expected(ext), m.Expected(grp), m.Expected(jn)
	if !(dj > dg && dg > de) {
		t.Fatalf("operator cost ordering broken: join %v, groupby %v, extract %v", dj, dg, de)
	}
}

func TestReduceCostsMoreThanMap(t *testing.T) {
	// Same bytes: a reduce pays shuffle + sort and must exceed the map.
	m := NewDefaultCostModel(1)
	mapT := m.Expected(TaskSpec{Op: plan.Groupby, InBytes: 256 << 20, OutBytes: 64 << 20})
	redT := m.Expected(TaskSpec{Op: plan.Groupby, InBytes: 256 << 20, OutBytes: 64 << 20, Reduce: true})
	if redT <= mapT {
		t.Fatalf("reduce %v not more expensive than map %v", redT, mapT)
	}
}

func TestSortTermSuperlinear(t *testing.T) {
	// Doubling reduce input more than doubles the duration beyond startup.
	m := NewDefaultCostModel(1)
	base := startupSec
	d1 := m.Expected(TaskSpec{Op: plan.Extract, Reduce: true, InBytes: 512 << 20}) - base
	d2 := m.Expected(TaskSpec{Op: plan.Extract, Reduce: true, InBytes: 1024 << 20}) - base
	if d2 <= 2*d1 {
		t.Fatalf("sort term not superlinear: %v vs 2x%v", d2, d1)
	}
}

func TestDurationNoiseProperties(t *testing.T) {
	m := NewDefaultCostModel(7)
	spec := TaskSpec{Op: plan.Extract, InBytes: 256 << 20, OutBytes: 1e6}
	exp := m.Expected(spec)
	const n = 2000
	var sum float64
	for i := 0; i < n; i++ {
		d := m.Duration(spec)
		if d <= 0 {
			t.Fatal("non-positive duration")
		}
		sum += d
	}
	mean := sum / n
	if math.Abs(mean-exp)/exp > 0.03 {
		t.Fatalf("noisy mean %v deviates from expected %v", mean, exp)
	}
}

func TestDurationDeterministicStream(t *testing.T) {
	a, b := NewDefaultCostModel(9), NewDefaultCostModel(9)
	spec := TaskSpec{Op: plan.Join, InBytes: 1e8, OutBytes: 1e8, Reduce: true}
	for i := 0; i < 100; i++ {
		if a.Duration(spec) != b.Duration(spec) {
			t.Fatal("cost model streams diverged")
		}
	}
}

func TestExpectedPositiveProperty(t *testing.T) {
	m := NewDefaultCostModel(5)
	f := func(in, out uint32, reduce bool, opRaw uint8) bool {
		spec := TaskSpec{
			Op:       plan.JobType(opRaw % 3),
			Reduce:   reduce,
			InBytes:  float64(in),
			OutBytes: float64(out),
		}
		return m.Expected(spec) >= startupSec-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
