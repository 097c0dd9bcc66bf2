package predict_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"saqp/internal/plan"
	"saqp/internal/predict"
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

func TestLoadBundleVersions(t *testing.T) {
	tests := []struct {
		name     string
		data     string
		wantErr  error // errors.Is target; nil = any error when wantFail
		wantFail bool
		wantMeta bool
	}{
		{name: "v1 rejected", data: validV1, wantErr: predict.ErrVersion, wantFail: true},
		{name: "v2 without registry loads with nil metadata",
			data: strings.Replace(validV1, `"version":1`, `"version":2`, 1)},
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
			jm, tm, meta, err := predict.LoadBundle([]byte(tc.data))
			if tc.wantFail {
				if err == nil {
					t.Fatal("LoadBundle should fail")
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
			if (meta != nil) != tc.wantMeta {
				t.Fatalf("meta = %+v, wantMeta %v", meta, tc.wantMeta)
			}
		})
	}
}

func TestSaveBundleRoundTripsMetadata(t *testing.T) {
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
	meta := &predict.RegistryMeta{ModelVersion: 3, Samples: 250, ErrorWindow: []float64{0.1, 0.08, 0.12}}
	data, err := predict.SaveBundle(jm, tm, "retired champion", meta)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"version": 2`) {
		t.Fatal("SaveBundle should write the current (V2) layout")
	}
	jm2, _, meta2, err := predict.LoadBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	if meta2 == nil || meta2.ModelVersion != 3 || meta2.Samples != 250 ||
		len(meta2.ErrorWindow) != 3 || meta2.ErrorWindow[2] != 0.12 {
		t.Fatalf("metadata did not round-trip: %+v", meta2)
	}
	for _, s := range train.JobSamples[:20] {
		if jmPredict(jm, s) != jmPredict(jm2, s) {
			t.Fatal("coefficients drifted through the V2 round trip")
		}
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
