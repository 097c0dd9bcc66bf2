package predict_test

import (
	"bytes"
	"errors"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"saqp/internal/plan"
	"saqp/internal/predict"
	"saqp/internal/sim"
)

func TestSaveLoadModelsRoundTrip(t *testing.T) {
	c := sharedCorpus(t)
	train, _ := c.Split(0.75)
	jm, err := predict.FitJobModel(train.JobSamples)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := predict.FitTaskModel(train.TaskSamples)
	if err != nil {
		t.Fatal(err)
	}
	data, err := predict.SaveModels(jm, tm, "test bundle")
	if err != nil {
		t.Fatal(err)
	}
	jm2, tm2, err := predict.LoadModels(data)
	if err != nil {
		t.Fatal(err)
	}
	// Loaded models predict identically.
	for _, s := range train.JobSamples[:50] {
		a := math.Max(0, jmPredict(jm, s))
		b := math.Max(0, jmPredict(jm2, s))
		if a != b {
			t.Fatalf("job prediction drift after round trip: %v vs %v", a, b)
		}
	}
	for _, s := range train.TaskSamples[:100] {
		a := tm.PredictTask(s.Op, s.Reduce, s.Features[0], s.Features[1], 0.1)
		b := tm2.PredictTask(s.Op, s.Reduce, s.Features[0], s.Features[1], 0.1)
		if a != b {
			t.Fatalf("task prediction drift after round trip: %v vs %v", a, b)
		}
	}
}

// jmPredict scores one raw sample through a job model by operator.
func jmPredict(jm *predict.JobModel, s predict.JobSample) float64 {
	m := jm.Pooled
	if pm, ok := jm.PerOp[s.Op]; ok {
		m = pm
	}
	return m.Predict(s.Features)
}

func TestLoadModelsErrors(t *testing.T) {
	if _, _, err := predict.LoadModels([]byte("{")); err == nil {
		t.Fatal("garbage should fail")
	}
	if _, _, err := predict.LoadModels([]byte(`{"version": 99}`)); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch not detected: %v", err)
	}
	if _, _, err := predict.LoadModels([]byte(`{"version": 2}`)); err == nil {
		t.Fatal("missing pooled job model should fail")
	}
	if _, _, err := predict.LoadModels([]byte(
		`{"version":2,"job_pooled":{"theta":[1]},"map_pooled":{"theta":[1]},"reduce_pooled":{"theta":[1]},"job_per_op":{"Bogus":{"theta":[1]}}}`)); err == nil {
		t.Fatal("unknown operator should fail")
	}
}

// validV1 is a minimal hand-written pre-lifecycle (V1) bundle: complete
// but for its version, which no writer in this repository produces.
const validV1 = `{"version":1,` +
	`"job_pooled":{"theta":[1,2]},` +
	`"map_pooled":{"theta":[3,4]},` +
	`"reduce_pooled":{"theta":[5,6]}}`

// validV2 is validV1 at the current layout version.
var validV2 = strings.Replace(validV1, `"version":1`, `"version":2`, 1)

// withRegistry is validV2 carrying the model-lifecycle object earlier
// builds wrote into every registry snapshot.
var withRegistry = strings.Replace(validV2, `}}`,
	`},"registry":{"model_version":3,"samples":60,"error_window":[0.125,0.0625,0.25]}}`, 1)

func TestLoadModelsVersions(t *testing.T) {
	tests := []struct {
		name     string
		data     string
		wantErr  error // errors.Is target; nil = any error when wantFail
		wantFail bool
		// like, when set, is a bundle data must load to the same
		// coefficients as.
		like string
	}{
		{name: "v1 rejected", data: validV1, wantErr: predict.ErrVersion, wantFail: true},
		{name: "v2 loads", data: validV2},
		{name: "v2 registry object ignored", data: withRegistry, like: validV2},
		{name: "unknown future version rejected",
			data:    strings.Replace(validV1, `"version":1`, `"version":99`, 1),
			wantErr: predict.ErrVersion, wantFail: true},
		{name: "version zero rejected",
			data:    strings.Replace(validV1, `"version":1`, `"version":0`, 1),
			wantErr: predict.ErrVersion, wantFail: true},
		{name: "corrupt json rejected", data: `{"version":2,"job_pooled":`, wantFail: true},
		{name: "v2 missing pooled job model rejected",
			data:     `{"version":2,"map_pooled":{"theta":[1]},"reduce_pooled":{"theta":[1]}}`,
			wantFail: true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			jm, tm, err := predict.LoadModels([]byte(tc.data))
			if tc.wantFail {
				if err == nil {
					t.Fatal("LoadModels should fail")
				}
				if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want errors.Is %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if jm == nil || tm == nil {
				t.Fatal("models missing after load")
			}
			if tc.like == "" {
				return
			}
			jm2, tm2, err := predict.LoadModels([]byte(tc.like))
			if err != nil {
				t.Fatal(err)
			}
			for _, pair := range [][2]*predict.Model{
				{jm.Pooled, jm2.Pooled}, {tm.Map.Pooled, tm2.Map.Pooled}, {tm.Reduce.Pooled, tm2.Reduce.Pooled},
			} {
				if !slices.Equal(pair[0].Theta, pair[1].Theta) {
					t.Fatalf("coefficients %v, want %v", pair[0].Theta, pair[1].Theta)
				}
			}
		})
	}
}

func TestSaveModelsNil(t *testing.T) {
	if _, err := predict.SaveModels(nil, nil, ""); err == nil {
		t.Fatal("nil models should fail to save")
	}
}

func TestSavedBundleOperatorsComplete(t *testing.T) {
	c := sharedCorpus(t)
	train, _ := c.Split(0.75)
	jm, _ := predict.FitJobModel(train.JobSamples)
	tm, _ := predict.FitTaskModel(train.TaskSamples)
	data, err := predict.SaveModels(jm, tm, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []plan.JobType{plan.Extract, plan.Groupby, plan.Join} {
		if !strings.Contains(string(data), `"`+op.String()+`"`) {
			t.Fatalf("bundle missing operator %s", op)
		}
	}
}

// bundleSamples is a small seeded synthetic stream in the corpus's feature
// shapes (Eq. 8: 4 wide, Eq. 9: 3 wide). Extract reduce tasks are too few
// to identify a model of their own, so that class falls back to the
// phase-pooled fit and is absent from the bundle's reduce_per_op.
func bundleSamples() ([]predict.JobSample, []predict.TaskSample) {
	rng := sim.New(2018)
	ops := []plan.JobType{plan.Extract, plan.Groupby, plan.Join}
	var jobs []predict.JobSample
	var tasks []predict.TaskSample
	for i := 0; i < 60; i++ {
		op := ops[i%len(ops)]
		in, med, out := rng.Range(1, 200), rng.Range(1, 50), rng.Range(1, 20)
		pf := 0.0
		if op == plan.Join {
			pf = rng.Range(0, 0.25)
		}
		jobs = append(jobs, predict.JobSample{Op: op, Features: []float64{in, med, out, pf * med},
			Seconds: 8 + 0.4*in + 0.1*med + 0.05*out + 2*pf*med + rng.Normal(0, 1)})
		tasks = append(tasks, predict.TaskSample{Op: op, Features: []float64{in / 8, med / 8, pf * in / 8},
			Seconds: 1 + 0.2*in/8 + 0.05*med/8 + rng.Normal(0, 0.1)})
		if op != plan.Extract || i < 6 {
			tasks = append(tasks, predict.TaskSample{Op: op, Reduce: true, Features: []float64{med / 4, out / 4, pf * med / 4},
				Seconds: 2 + 0.3*med/4 + 0.1*out/4 + rng.Normal(0, 0.1)})
		}
	}
	return jobs, tasks
}

// TestBundleGoldenBytes pins the on-disk V2 layout: SaveModels of models
// fitted on the seeded stream is compared byte-for-byte with
// testdata/bundle_v2.json and survives LoadModels → SaveModels
// unchanged. Regenerate only on purpose:
//
//	SAQP_UPDATE_GOLDEN=1 go test -run TestBundleGoldenBytes ./internal/predict
func TestBundleGoldenBytes(t *testing.T) {
	jobs, tasks := bundleSamples()
	jm, err := predict.FitJobModel(jobs)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := predict.FitTaskModel(tasks)
	if err != nil {
		t.Fatal(err)
	}
	got, err := predict.SaveModels(jm, tm, "golden bundle")
	if err != nil {
		t.Fatal(err)
	}
	const path = "testdata/bundle_v2.json"
	if os.Getenv("SAQP_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden bundle (create with SAQP_UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("bundle bytes drifted from %s:\n%s", path, got)
	}
	for _, key := range []string{`"job_pooled"`, `"job_per_op"`, `"map_pooled"`, `"map_per_op"`,
		`"reduce_pooled"`, `"reduce_per_op"`} {
		if !bytes.Contains(want, []byte(key)) {
			t.Errorf("golden bundle lacks key %s", key)
		}
	}
	jm2, tm2, err := predict.LoadModels(want)
	if err != nil {
		t.Fatal(err)
	}
	again, err := predict.SaveModels(jm2, tm2, "golden bundle")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatalf("bundle did not survive LoadModels → SaveModels:\n%s", again)
	}
	// The starved class is served by the phase-pooled model on both sides
	// of the round trip.
	in, out := 3.0, 1.5
	if a, b := tm.PredictTask(plan.Extract, true, in, out, 0), tm2.PredictTask(plan.Extract, true, in, out, 0); a != b {
		t.Fatalf("fallback prediction drifted through the round trip: %v vs %v", a, b)
	}
}
