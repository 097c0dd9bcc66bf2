//go:build race

package selectivity_test

// raceEnabled: under the race detector sync.Pool drops a random share of
// what is put back, so a pooled walk's allocations cannot be counted.
const raceEnabled = true
