//go:build race

package mapreduce

// raceEnabled: under the race detector sync.Pool drops a random share of
// what is put back (fmt's printers among it), so a pass's count varies by
// a few allocations.
const raceEnabled = true
