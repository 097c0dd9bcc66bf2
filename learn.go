package saqp

import (
	"saqp/internal/learn"
)

// Online-learning re-exports, so callers stay on the facade.
type (
	// Learner is the versioned model registry with champion/challenger
	// semantics — the online model-lifecycle subsystem.
	Learner = learn.Registry
	// LearnerConfig assembles a Learner (window size, promotion margin,
	// minimum samples, seed champion).
	LearnerConfig = learn.Config
)

// NewLearner builds an online model-lifecycle registry. Unset config
// fields default from the framework: the observer is the framework's,
// and — when the framework has trained models — they seed the registry
// as the version-1 serving champion, so online learning starts from the
// batch fit instead of cold.
func (f *Framework) NewLearner(cfg LearnerConfig) *Learner {
	if cfg.Observer == nil {
		cfg.Observer = f.Obs
	}
	if cfg.Champion == nil && cfg.ChampionTasks == nil {
		cfg.Champion, cfg.ChampionTasks = f.JobTime, f.TaskTime
	}
	return learn.NewRegistry(cfg)
}
