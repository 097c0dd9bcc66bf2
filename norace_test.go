//go:build !race

package saqp_test

const raceEnabled = false
