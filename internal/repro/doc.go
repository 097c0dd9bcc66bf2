// Package repro regenerates the paper's evaluation (Section 5): one driver
// per table, figure, ablation and replay, each returning structured results
// that cmd/benchrunner prints as one -exp row. Every simulated experiment is
// one replay of prepared queries per (cluster config, scheduler) pair. The
// package never imports package saqp.
package repro
