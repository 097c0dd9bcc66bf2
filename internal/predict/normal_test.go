package predict

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"saqp/internal/plan"
	"saqp/internal/sim"
)

// synthSamples draws n samples of a noisy 3-feature plane from a seeded
// generator.
func synthSamples(seed uint64, n int) []JobSample {
	r := sim.New(seed)
	truth := []float64{4, 2.5, -1.25, 0.5}
	out := make([]JobSample, 0, n)
	for i := 0; i < n; i++ {
		f := []float64{r.Range(1, 100), r.Range(-20, 20), r.Range(0, 8)}
		y := truth[0] + truth[1]*f[0] + truth[2]*f[1] + truth[3]*f[2] + r.Normal(0, 0.5)
		out = append(out, JobSample{Features: f, Seconds: y})
	}
	return out
}

// feedOnline adds the samples to a fresh Normal the way feedback arrives:
// one at a time, solving between samples (the solve must leave the
// accumulated equations untouched).
func feedOnline(t testing.TB, samples []JobSample, weight func(float64) float64) *Model {
	var a Normal
	for _, s := range samples {
		a.Solve() // may be underdetermined; only the final solve is compared
		w := 1.0
		if weight != nil {
			w = weight(s.Seconds)
		}
		if err := a.Add(s.Features, s.Seconds, w); err != nil {
			t.Fatal(err)
		}
	}
	m, err := a.Solve()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestNormalOneAtATimeEqualsBatch is the property the online registry
// stands on: an accumulator fed N samples one at a time, solved along the
// way, holds the coefficients a single solve after the whole stream
// computes (fit, the batch path) — to the bit, for both weight schemes and
// for a whole family.
func TestNormalOneAtATimeEqualsBatch(t *testing.T) {
	for _, tc := range []struct {
		name   string
		weight func(float64) float64
	}{
		{"uniform", nil},
		{"relative", RelativeWeight},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := func(seedRaw uint16, nRaw uint8) bool {
				samples := synthSamples(uint64(seedRaw)+1, 10+int(nRaw)%200)
				batch, err := fit(samples, tc.weight)
				return err == nil && slices.Equal(feedOnline(t, samples, tc.weight).Theta, batch.Theta)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("family ≡ FitJobModel", func(t *testing.T) {
		ops := []plan.JobType{plan.Extract, plan.Groupby, plan.Join}
		var jobs []JobSample
		var ff FamilyFit
		for i, s := range synthSamples(9, 120) {
			if s.Seconds <= 0 {
				continue
			}
			ff.Solve()
			s.Op = ops[i%len(ops)]
			jobs = append(jobs, s)
			if err := ff.Add(s.Op, s.Features, s.Seconds); err != nil {
				t.Fatal(err)
			}
		}
		online, err := ff.Solve()
		if err != nil {
			t.Fatal(err)
		}
		batch, err := FitJobModel(jobs)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(online.Pooled.Theta, batch.Pooled.Theta) || len(online.PerOp) != len(ops) {
			t.Fatalf("pooled %v vs %v, %d operator models", online.Pooled.Theta, batch.Pooled.Theta, len(online.PerOp))
		}
		for _, op := range ops {
			if !slices.Equal(online.PerOp[op].Theta, batch.PerOp[op].Theta) {
				t.Fatalf("%s: %v vs %v", op, online.PerOp[op].Theta, batch.PerOp[op].Theta)
			}
		}
	})
}

// TestNormalOneAtATimeNearCollinear drives both feeds through the ridge
// path: two almost-identical features give a near-singular Gram matrix,
// where agreement depends on the online feed reusing the exact batch
// regularisation.
func TestNormalOneAtATimeNearCollinear(t *testing.T) {
	r := sim.New(11)
	var samples []JobSample
	for i := 0; i < 120; i++ {
		x := r.Range(1, 50)
		samples = append(samples, JobSample{
			Features: []float64{x, x * (1 + 1e-10), r.Range(0, 5)},
			Seconds:  2 + 3*x + r.Normal(0, 0.1),
		})
	}
	batch, err := fit(samples, RelativeWeight)
	if err != nil {
		t.Fatal(err)
	}
	if online := feedOnline(t, samples, RelativeWeight); !slices.Equal(online.Theta, batch.Theta) {
		t.Fatalf("near-collinear coefficients differ: %v vs %v", online.Theta, batch.Theta)
	}
}

func TestNormalSolveUnderdetermined(t *testing.T) {
	var a Normal
	if _, err := a.Solve(); !errors.Is(err, ErrUnderdetermined) {
		t.Fatalf("empty accumulator Solve err = %v", err)
	}
	// 3 features + intercept = 4 coefficients; 3 samples stay short.
	for i := 0; i < 3; i++ {
		if err := a.Add([]float64{1, float64(i), 2}, 5, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Solve(); !errors.Is(err, ErrUnderdetermined) {
		t.Fatalf("underdetermined accumulator Solve err = %v", err)
	}
	if err := a.Add([]float64{9, 9}, 1, 1); err == nil {
		t.Fatal("width change should be rejected")
	}
	if a.N() != 3 {
		t.Fatalf("N = %d after a rejected sample, want 3", a.N())
	}
}

// TestNormalModelReplacedNotMutated pins the freezing property the
// registry relies on: a model handed out before further Adds keeps its
// coefficients.
func TestNormalModelReplacedNotMutated(t *testing.T) {
	var a Normal
	r := sim.New(3)
	for i := 0; i < 50; i++ {
		x := r.Range(0, 10)
		a.Add([]float64{x}, 2*x+r.Normal(0, 0.1), 1)
	}
	m1, err := a.Solve()
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64{}, m1.Theta...)
	for i := 0; i < 50; i++ {
		a.Add([]float64{r.Range(0, 10)}, 100, 1) // shift the fit hard
	}
	m2, err := a.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if m2 == m1 || slices.Equal(m2.Theta, before) {
		t.Fatal("the later solve should be a new, different model")
	}
	if !slices.Equal(m1.Theta, before) {
		t.Fatal("earlier model's coefficients were mutated by later Adds")
	}
}

// TestFamilyFitPredictSampleEqualsSolve holds in-place scoring to the
// family Solve builds, bit for bit: after every Add of a seeded stream,
// each operator's FamilyFit.PredictSample equals Solve's family scored
// through JobModel.PredictSample, and is not ok exactly when Solve
// fails. The stream covers a cold start (the pooled accumulator
// underdetermined), an operator seen fewer than k times (pooled
// fallback), an operator whose features are collinear, samples of the
// wrong width, and a sample that overflows the Gram matrix, after which
// every elimination is singular. A model Solve returned earlier must not
// move while the stream goes on.
func TestFamilyFitPredictSampleEqualsSolve(t *testing.T) {
	r := sim.New(21)
	ops := []plan.JobType{plan.Extract, plan.Groupby, plan.Join}
	var ff FamilyFit
	var notOK, fallbacks int
	check := func(step int, f []float64) {
		t.Helper()
		for _, op := range ops {
			got, ok := ff.PredictSample(op, f) // first, so it solves for itself
			fam, err := ff.Solve()
			if ok != (err == nil) {
				t.Fatalf("step %d, %s: PredictSample ok %v, Solve err %v", step, op, ok, err)
			}
			if !ok {
				notOK++
				continue
			}
			if _, own := fam.PerOp[op]; !own && ff.perOp[op] != nil {
				fallbacks++
			}
			if want := (&JobModel{fam}).PredictSample(JobSample{Op: op, Features: f}); got != want {
				t.Fatalf("step %d, %s: in place %v, solved %v", step, op, got, want)
			}
		}
	}
	var snap *Model
	var frozen []float64
	for i := 0; i < 240; i++ {
		x := r.Range(1, 200)
		f := []float64{x, r.Range(1, 50), r.Range(1, 20), r.Range(0, 10)}
		op := plan.Groupby
		switch {
		case i%40 == 3:
			f = f[:3] // the wrong width: rejected, but still scored
		case i%20 == 0:
			op = plan.Extract // identified only after its fifth sample
		case i%2 == 1:
			op, f = plan.Join, []float64{x, 2 * x, x, 0}
		}
		check(i, f)
		if err := ff.Add(op, f, 5+0.4*f[0]+0.1*f[1]+r.Normal(0, 1)); (err == nil) != (len(f) == 4) {
			t.Fatalf("step %d: Add of a %d-feature sample: %v", i, len(f), err)
		}
		check(i, f)
		if i == 120 {
			fam, err := ff.Solve()
			if err != nil {
				t.Fatal(err)
			}
			snap, frozen = fam.PerOp[plan.Join], slices.Clone(fam.PerOp[plan.Join].Theta)
		}
	}
	if notOK == 0 || fallbacks == 0 {
		t.Fatalf("the stream never reached a cold start (%d) or a pooled fallback (%d)", notOK, fallbacks)
	}
	huge := []float64{1e200, 1, 1, 1}
	if err := ff.Add(plan.Groupby, huge, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := ff.Solve(); !errors.Is(err, ErrSingular) {
		t.Fatalf("after an overflowing sample Solve err = %v, want ErrSingular", err)
	}
	notOK = 0
	check(-1, huge)
	if notOK != len(ops) {
		t.Fatalf("after an overflowing sample %d of %d scores were ok", len(ops)-notOK, len(ops))
	}
	if !slices.Equal(snap.Theta, frozen) {
		t.Fatalf("a Solve snapshot moved under later Adds: %v, was %v", snap.Theta, frozen)
	}
}

// TestNormalRejectsNonFinite: a NaN or infinite feature, target or
// weight is refused with ErrNonFinite and leaves the accumulator as it
// was, so the samples after it still solve.
func TestNormalRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, bad := range []struct {
		name           string
		f              []float64
		target, weight float64
	}{
		{"NaN target", []float64{1, 2}, nan, 1},
		{"Inf target", []float64{1, 2}, inf, 1},
		{"NaN weight", []float64{1, 2}, 3, nan},
		{"NaN feature", []float64{nan, 2}, 3, 1},
		{"-Inf feature", []float64{1, -inf}, 3, 1},
	} {
		t.Run(bad.name, func(t *testing.T) {
			var a, clean Normal
			r := sim.New(4)
			for i := 0; i < 20; i++ {
				if i == 10 {
					if err := a.Add(bad.f, bad.target, bad.weight); !errors.Is(err, ErrNonFinite) {
						t.Fatalf("Add err = %v, want ErrNonFinite", err)
					}
				}
				f := []float64{r.Range(0, 10), r.Range(0, 10)}
				y := 1 + 2*f[0] - f[1] + r.Normal(0, 0.1)
				if err := a.Add(f, y, 1); err != nil {
					t.Fatal(err)
				}
				if err := clean.Add(f, y, 1); err != nil {
					t.Fatal(err)
				}
			}
			got, err := a.Solve()
			if err != nil {
				t.Fatal(err)
			}
			want, err := clean.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if a.N() != 20 || !slices.Equal(got.Theta, want.Theta) {
				t.Fatalf("N %d, θ %v; want 20 and the clean stream's %v", a.N(), got.Theta, want.Theta)
			}
		})
	}
}
