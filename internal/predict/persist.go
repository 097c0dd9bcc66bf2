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

// RegistryMeta is the model-lifecycle metadata a V2 bundle carries: the
// registry version counter the bundle was serving as, the number of
// feedback samples absorbed up to that point, and the trailing window of
// per-job relative errors that justified (or preceded) its retirement.
type RegistryMeta struct {
	ModelVersion int       `json:"model_version"`
	Samples      int       `json:"samples"`
	ErrorWindow  []float64 `json:"error_window,omitempty"`
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
	// Registry is absent (nil) in bundles saved without lifecycle
	// metadata.
	Registry *RegistryMeta `json:"registry,omitempty"`
}

// currentVersion is the only bundle layout this build reads or writes:
// coefficients plus the optional registry lifecycle metadata. (The
// coefficient-only version 1 predates every writer in this repository.)
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

func savePerOp(m map[plan.JobType]*Model) map[string]*savedModel {
	out := make(map[string]*savedModel, len(m))
	for op, mm := range m {
		out[op.String()] = toSaved(mm)
	}
	return out
}

func loadPerOp(m map[string]*savedModel) (map[plan.JobType]*Model, error) {
	out := make(map[plan.JobType]*Model, len(m))
	for name, sm := range m {
		op, ok := opByName[name]
		if !ok {
			return nil, fmt.Errorf("predict: unknown operator %q in saved models", name)
		}
		if mm := fromSaved(sm); mm != nil {
			out[op] = mm
		}
	}
	return out, nil
}

// SaveModels serialises a trained (job, task) model pair to JSON with no
// lifecycle metadata. Equivalent to SaveBundle(jm, tm, description, nil).
func SaveModels(jm *JobModel, tm *TaskModel, description string) ([]byte, error) {
	return SaveBundle(jm, tm, description, nil)
}

// SaveBundle serialises a trained (job, task) model pair to a V2 JSON
// bundle, optionally carrying the model-lifecycle metadata the registry
// (internal/learn) stamps on champion snapshots.
func SaveBundle(jm *JobModel, tm *TaskModel, description string, meta *RegistryMeta) ([]byte, error) {
	if jm == nil || tm == nil {
		return nil, fmt.Errorf("predict: cannot save nil models")
	}
	b := savedBundle{
		Version:     currentVersion,
		Description: description,
		JobPooled:   toSaved(jm.Pooled),
		JobPerOp:    savePerOp(jm.PerOp),
		MapPooled:   toSaved(tm.MapModel),
		MapPerOp:    savePerOp(tm.MapPerOp),
		RedPooled:   toSaved(tm.ReduceModel),
		RedPerOp:    savePerOp(tm.ReducePerOp),
		Registry:    meta,
	}
	return json.MarshalIndent(b, "", "  ")
}

// LoadModels parses a bundle produced by SaveModels or SaveBundle,
// discarding any lifecycle metadata. See LoadBundle for version rules.
func LoadModels(data []byte) (*JobModel, *TaskModel, error) {
	jm, tm, _, err := LoadBundle(data)
	return jm, tm, err
}

// LoadBundle parses a saved bundle and returns its models with their
// RegistryMeta (nil when saved without one). Any layout version other
// than the current one fails with a wrapped ErrVersion.
func LoadBundle(data []byte) (*JobModel, *TaskModel, *RegistryMeta, error) {
	var b savedBundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, nil, nil, fmt.Errorf("predict: parsing saved models: %w", err)
	}
	if b.Version != currentVersion {
		return nil, nil, nil, fmt.Errorf("%w: got %d, support %d",
			ErrVersion, b.Version, currentVersion)
	}
	jm := &JobModel{Pooled: fromSaved(b.JobPooled)}
	if jm.Pooled == nil {
		return nil, nil, nil, fmt.Errorf("predict: saved bundle lacks a pooled job model")
	}
	var err error
	if jm.PerOp, err = loadPerOp(b.JobPerOp); err != nil {
		return nil, nil, nil, err
	}
	tm := &TaskModel{MapModel: fromSaved(b.MapPooled), ReduceModel: fromSaved(b.RedPooled)}
	if tm.MapModel == nil || tm.ReduceModel == nil {
		return nil, nil, nil, fmt.Errorf("predict: saved bundle lacks pooled task models")
	}
	if tm.MapPerOp, err = loadPerOp(b.MapPerOp); err != nil {
		return nil, nil, nil, err
	}
	if tm.ReducePerOp, err = loadPerOp(b.RedPerOp); err != nil {
		return nil, nil, nil, err
	}
	return jm, tm, b.Registry, nil
}
