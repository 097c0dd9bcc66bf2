//go:build race

package saqp_test

// raceEnabled: under the race detector sync.Pool drops a random share of
// what is put back, so pooled scratch's allocations cannot be counted.
const raceEnabled = true
