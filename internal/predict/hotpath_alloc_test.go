package predict

import (
	"testing"

	"saqp/internal/plan"
)

var (
	hotSinkFloat float64
	hotSinkModel *Model
)

// TestHotPathAllocs is the runtime half of the //saqp:hotpath contract
// for model evaluation: zero heap allocations per call.
func TestHotPathAllocs(t *testing.T) {
	m := &Model{Theta: []float64{0.5, 1, 2, 3}}
	feats := []float64{1, 2, 3}
	jm := &JobModel{Family{Pooled: m, PerOp: map[plan.JobType]*Model{plan.Join: m}}}
	tm := &TaskModel{
		Map:    Family{Pooled: m, PerOp: map[plan.JobType]*Model{plan.Join: m}},
		Reduce: Family{Pooled: m, PerOp: map[plan.JobType]*Model{}},
	}
	cases := []struct {
		name string
		fn   func()
	}{
		{"Model.Predict", func() { hotSinkFloat = m.Predict(feats) }},
		{"JobModel.For", func() { hotSinkModel = jm.For(plan.Extract) }},
		{"TaskModel.phase.For", func() { hotSinkModel = tm.phase(true).For(plan.Join) }},
		{"opIndicator", func() { hotSinkFloat = opIndicator(plan.Join) }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s allocates %.0f times per call; //saqp:hotpath functions must not allocate", c.name, n)
		}
	}
}
