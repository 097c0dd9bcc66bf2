// Package learn is the online model-lifecycle subsystem: it closes the
// observe→learn→predict loop that the paper leaves open by training its
// Eq. 8/9 time models once, offline.
//
// Three pieces compose:
//
//   - Learner is a recursive-least-squares (RLS) online fitter: a
//     predict.Normal — the accumulator the batch fitters in
//     internal/predict are themselves written on — fed one (features,
//     observed seconds) sample at a time and solved lazily, so after N
//     updates its coefficients agree with a batch Fit/FitRelative over
//     the identical stream to the last bit. It also tracks prequential residuals, so
//     PredictWithInterval returns a confidence band alongside the point
//     estimate.
//
//   - Registry is a versioned model store with champion/challenger
//     semantics: the serving champion stays frozen while the challenger —
//     one learner family (pooled + per operator) each for jobs, map tasks
//     and reduce tasks — absorbs completed-job feedback; when the challenger's
//     windowed average relative error beats the champion's by a
//     configurable margin, the registry atomically promotes it, bumps the
//     version, and snapshots the retired champion as a V2 predict
//     persistence bundle.
//
//   - The serving engine (internal/serve) feeds observed job and task
//     times into the registry after each cleanly completed query and
//     serves admission scores and per-task predictions from the current
//     champion; internal/obs carries the saqp_learn_* metrics and the
//     promotion trace instants.
//
// Every decision in this package is deterministic: promotions are driven
// by sample counts and error windows, never the wall clock, so a seeded
// replay reproduces the identical promotion sequence byte for byte.
package learn
