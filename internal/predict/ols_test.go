package predict

import (
	"math"
	"testing"
	"testing/quick"

	"saqp/internal/sim"
)

// fit solves samples the way every product fit does: one Normal, each
// sample added with weight(Seconds) (nil: uniform), solved once.
func fit(samples []JobSample, weight func(float64) float64) (*Model, error) {
	var a Normal
	for _, s := range samples {
		w := 1.0
		if weight != nil {
			w = weight(s.Seconds)
		}
		if err := a.Add(s.Features, s.Seconds, w); err != nil {
			return nil, err
		}
	}
	return a.Solve()
}

// score is the "All" row of Table 3's accuracy for m serving every
// operator, through JobAccuracyByOperator. PredictSample clamps at zero,
// so the models scored here predict positive times.
func score(m *Model, samples []JobSample) GroupAccuracy {
	rows := (&JobModel{Family{Pooled: m}}).JobAccuracyByOperator(samples)
	if len(rows) == 0 {
		return GroupAccuracy{}
	}
	return rows[len(rows)-1]
}

func TestFitRecoversExactCoefficients(t *testing.T) {
	// Noise-free synthetic data: OLS must recover the exact plane.
	r := sim.New(1)
	truth := []float64{120, 1.5, -2, 0.25}
	var samples []JobSample
	for i := 0; i < 200; i++ {
		f := []float64{r.Range(0, 100), r.Range(-50, 50), r.Range(0, 10)}
		y := truth[0] + truth[1]*f[0] + truth[2]*f[1] + truth[3]*f[2]
		samples = append(samples, JobSample{Features: f, Seconds: y})
	}
	m, err := fit(samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range truth {
		if math.Abs(m.Theta[i]-want) > 1e-6 {
			t.Fatalf("theta[%d] = %v, want %v", i, m.Theta[i], want)
		}
	}
	acc := score(m, samples)
	if math.Abs(acc.RSquared-1) > 1e-9 {
		t.Fatalf("R² = %v on noise-free data", acc.RSquared)
	}
	if acc.AvgError > 1e-6 {
		t.Fatalf("avg error = %v on noise-free data", acc.AvgError)
	}
}

func TestFitWithNoise(t *testing.T) {
	r := sim.New(2)
	var samples []JobSample
	for i := 0; i < 2000; i++ {
		x := r.Range(0, 100)
		y := 5 + 2*x + r.Normal(0, 3)
		samples = append(samples, JobSample{Features: []float64{x}, Seconds: y})
	}
	m, err := fit(samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Theta[1]-2) > 0.05 {
		t.Fatalf("slope = %v, want ~2", m.Theta[1])
	}
	r2 := score(m, samples).RSquared
	if r2 < 0.9 || r2 > 1 {
		t.Fatalf("R² = %v, want high but < 1", r2)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := fit(nil, nil); err == nil {
		t.Fatal("empty fit should fail")
	}
	// Fewer samples than coefficients.
	s := []JobSample{{Features: []float64{1, 2, 3}, Seconds: 1}}
	if _, err := fit(s, nil); err == nil {
		t.Fatal("underdetermined fit should fail")
	}
	// Inconsistent widths.
	bad := []JobSample{
		{Features: []float64{1}, Seconds: 1},
		{Features: []float64{1, 2}, Seconds: 2},
		{Features: []float64{3}, Seconds: 3},
	}
	if _, err := fit(bad, nil); err == nil {
		t.Fatal("ragged features should fail")
	}
}

func TestFitCollinearSurvivesViaRidge(t *testing.T) {
	// Perfectly duplicated feature: the tiny ridge keeps it solvable and
	// predictions exact even though individual coefficients are not unique.
	r := sim.New(3)
	var samples []JobSample
	for i := 0; i < 100; i++ {
		x := r.Range(0, 10)
		samples = append(samples, JobSample{Features: []float64{x, x}, Seconds: 7 * x})
	}
	m, err := fit(samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := m.Predict([]float64{2, 2}); math.Abs(p-14) > 0.01 {
		t.Fatalf("collinear prediction = %v, want 14", p)
	}
}

func TestRSquaredRange(t *testing.T) {
	samples := []JobSample{
		{Features: []float64{1}, Seconds: 10},
		{Features: []float64{2}, Seconds: 20},
		{Features: []float64{3}, Seconds: 30},
	}
	// A deliberately wrong model: R² can be negative.
	wrong := &Model{Theta: []float64{100, -10}}
	if r2 := score(wrong, samples).RSquared; r2 >= 0 {
		t.Fatalf("wrong model R² = %v, expected negative", r2)
	}
	// Constant targets: R² defined as 1 for perfect, 0 otherwise.
	flat := []JobSample{{Features: []float64{1}, Seconds: 5}, {Features: []float64{2}, Seconds: 5}}
	perfect := &Model{Theta: []float64{5, 0}}
	if score(perfect, flat).RSquared != 1 {
		t.Fatal("perfect constant fit should be R²=1")
	}
	if score(wrong, nil).RSquared != 0 {
		t.Fatal("empty sample R² should be 0")
	}
}

func TestAvgRelErrorSkipsNonPositive(t *testing.T) {
	m := &Model{Theta: []float64{0, 1}}
	samples := []JobSample{
		{Features: []float64{10}, Seconds: 10}, // exact
		{Features: []float64{5}, Seconds: 0},   // skipped
	}
	if e := score(m, samples).AvgError; e != 0 {
		t.Fatalf("avg error = %v", e)
	}
	if e := score(m, nil).AvgError; e != 0 {
		t.Fatal("empty avg error should be 0")
	}
}

func TestPredictRejectsWidthMismatch(t *testing.T) {
	m := &Model{Theta: []float64{1, 2}}
	tests := []struct {
		name     string
		features []float64
		want     float64
	}{
		{"exact width", []float64{3}, 7},
		{"too wide", []float64{3, 99, 99}, 0},
		{"too narrow", nil, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			// A width mismatch degrades to 0 instead of silently
			// truncating or reading past the vector.
			if got := m.Predict(tc.features); got != tc.want {
				t.Fatalf("Predict = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestOLSPropertyAffineInvariance(t *testing.T) {
	// Scaling all targets by c scales predictions by c.
	f := func(cRaw uint8) bool {
		c := float64(cRaw%50) + 1
		var s1, s2 []JobSample
		rr := sim.New(5)
		for i := 0; i < 50; i++ {
			x := rr.Range(0, 10)
			y := 2 + 3*x + rr.Normal(0, 0.1)
			s1 = append(s1, JobSample{Features: []float64{x}, Seconds: y})
			s2 = append(s2, JobSample{Features: []float64{x}, Seconds: c * y})
		}
		m1, err1 := fit(s1, nil)
		m2, err2 := fit(s2, nil)
		if err1 != nil || err2 != nil {
			return false
		}
		p1 := m1.Predict([]float64{5})
		p2 := m2.Predict([]float64{5})
		return math.Abs(p2-c*p1) < 1e-6*math.Abs(c*p1)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
