// Package sim provides deterministic pseudo-random number generation and
// the statistical distributions used throughout the reproduction: uniform,
// normal, log-normal, exponential (the gaps of Poisson arrivals) and Zipf.
// Every experiment in this repository is seeded, so results are
// bit-for-bit reproducible across runs.
//
// The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA'14). It is tiny,
// passes BigCrush when used as a 64-bit stream, and — unlike math/rand's
// global source — can be freely copied, forked and embedded in value types,
// which the discrete-event simulator relies on.
package sim
