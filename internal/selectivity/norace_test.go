//go:build !race

package selectivity_test

const raceEnabled = false
