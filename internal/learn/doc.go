// Package learn is the online model-lifecycle subsystem: it closes the
// observe→learn→predict loop that the paper leaves open by training its
// Eq. 8/9 time models once, offline.
//
// Two pieces compose:
//
//   - Registry is a versioned model store with champion/challenger
//     semantics: the serving champion stays frozen while the challenger —
//     one predict.FamilyFit (pooled + per operator) each for jobs, map
//     tasks and reduce tasks, the very accumulator the batch fitters in
//     internal/predict Add their corpus to — absorbs completed-job
//     feedback one sample at a time, so after N observations its
//     coefficients are the batch fit's over the identical stream, to the
//     last bit, by definition rather than by test. Each observed job
//     scores the challenger in place, building no model; the families
//     are built only when a promotion installs them. When the
//     challenger's windowed average relative error beats the champion's
//     by a configurable margin, the registry atomically promotes it and
//     bumps the version.
//
//   - The serving engine (internal/serve), through the Source seam, feeds
//     observed job and task times into the registry after each cleanly
//     completed query and serves admission scores and per-task
//     predictions from the current champion; internal/obs carries the
//     saqp_learn_* metrics and the promotion trace instants.
//
// Every decision in this package is deterministic: promotions are driven
// by sample counts and error windows, never the wall clock, so a seeded
// replay reproduces the identical promotion sequence byte for byte.
package learn
