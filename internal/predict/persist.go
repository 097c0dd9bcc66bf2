package predict

import (
	"encoding/json"
	"errors"
	"fmt"

	"saqp/internal/plan"
)

// Trained models are small (a handful of coefficient vectors); persisting
// them lets a deployment train once on its historical corpus and load the
// coefficients at query-submission time — the paper's offline-training /
// online-prediction split.

// savedModel is the serialised form of one coefficient vector.
type savedModel struct {
	Theta []float64 `json:"theta"`
}

// savedBundle is the on-disk layout of a trained model set.
type savedBundle struct {
	Version     int                    `json:"version"`
	JobPooled   *savedModel            `json:"job_pooled"`
	JobPerOp    map[string]*savedModel `json:"job_per_op"`
	MapPooled   *savedModel            `json:"map_pooled"`
	MapPerOp    map[string]*savedModel `json:"map_per_op"`
	RedPooled   *savedModel            `json:"reduce_pooled"`
	RedPerOp    map[string]*savedModel `json:"reduce_per_op"`
	Description string                 `json:"description,omitempty"`
}

// currentVersion is the only bundle layout this build reads or writes.
// (Version 1 predates every writer in this repository.) A version-2 file
// may also carry a "registry" object of model-lifecycle metadata, written
// by earlier builds; loading ignores it.
const currentVersion = 2

// ErrVersion is returned (wrapped, with the offending version number)
// when a saved bundle declares a layout version this build does not
// understand.
var ErrVersion = errors.New("predict: unsupported saved-models version")

func toSaved(m *Model) *savedModel {
	if m == nil {
		return nil
	}
	return &savedModel{Theta: append([]float64{}, m.Theta...)}
}

func fromSaved(s *savedModel) *Model {
	if s == nil || len(s.Theta) == 0 {
		return nil
	}
	return &Model{Theta: append([]float64{}, s.Theta...)}
}

// opName round-trips operator keys as stable strings.
var opByName = map[string]plan.JobType{
	plan.Extract.String(): plan.Extract,
	plan.Groupby.String(): plan.Groupby,
	plan.Join.String():    plan.Join,
}

// saveFamily serialises one family into its pooled and per-operator
// slots of the bundle.
func saveFamily(f *Family) (*savedModel, map[string]*savedModel) {
	perOp := make(map[string]*savedModel, len(f.PerOp))
	for op, m := range f.PerOp {
		perOp[op.String()] = toSaved(m)
	}
	return toSaved(f.Pooled), perOp
}

// loadFamily is saveFamily's inverse; name says which family a bundle
// lacks when its pooled model is missing.
func loadFamily(name string, pooled *savedModel, perOp map[string]*savedModel) (Family, error) {
	f := Family{Pooled: fromSaved(pooled), PerOp: make(map[plan.JobType]*Model, len(perOp))}
	if f.Pooled == nil {
		return f, fmt.Errorf("predict: saved bundle lacks a pooled %s model", name)
	}
	for opName, sm := range perOp {
		op, ok := opByName[opName]
		if !ok {
			return f, fmt.Errorf("predict: unknown operator %q in saved models", opName)
		}
		if m := fromSaved(sm); m != nil {
			f.PerOp[op] = m
		}
	}
	return f, nil
}

// SaveModels serialises a trained (job, task) model pair to a V2 JSON
// bundle.
func SaveModels(jm *JobModel, tm *TaskModel, description string) ([]byte, error) {
	if jm == nil || tm == nil {
		return nil, fmt.Errorf("predict: cannot save nil models")
	}
	b := savedBundle{Version: currentVersion, Description: description}
	b.JobPooled, b.JobPerOp = saveFamily(&jm.Family)
	b.MapPooled, b.MapPerOp = saveFamily(&tm.Map)
	b.RedPooled, b.RedPerOp = saveFamily(&tm.Reduce)
	return json.MarshalIndent(b, "", "  ")
}

// LoadModels parses a bundle produced by SaveModels. Any layout version
// other than the current one fails with a wrapped ErrVersion.
func LoadModels(data []byte) (*JobModel, *TaskModel, error) {
	var b savedBundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, nil, fmt.Errorf("predict: parsing saved models: %w", err)
	}
	if b.Version != currentVersion {
		return nil, nil, fmt.Errorf("%w: got %d, support %d",
			ErrVersion, b.Version, currentVersion)
	}
	var jm JobModel
	var tm TaskModel
	var err error
	if jm.Family, err = loadFamily("job", b.JobPooled, b.JobPerOp); err != nil {
		return nil, nil, err
	}
	if tm.Map, err = loadFamily("map task", b.MapPooled, b.MapPerOp); err != nil {
		return nil, nil, err
	}
	if tm.Reduce, err = loadFamily("reduce task", b.RedPooled, b.RedPerOp); err != nil {
		return nil, nil, err
	}
	return &jm, &tm, nil
}
