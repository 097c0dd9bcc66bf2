// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis framework, built only on the standard
// library (go/ast, go/parser, go/types, go/importer) so the repository
// carries no external dependencies.
//
// It exists because the paper's prediction pipeline is only reproducible
// while the simulator stays bit-for-bit deterministic and numerically
// careful. Those invariants — no wall-clock reads in simulated paths, no
// global math/rand, no exact float comparison in the estimator, no
// unguarded writes to mutex-protected state, no silently dropped errors —
// were previously upheld by convention. The analyzers in the
// sub-packages (determinism, floatcmp, lockcheck, errdrop, …) turn
// them into machine-checked rules. The suite ("saqpvet", the name the
// //lint:allow directive spells) has one driver: TestRepositoryIsClean
// in this package's self-tests loads every module package from source
// and runs registry.All() over it, inside tier-1 `go test ./...`.
// docs/ANALYSIS.md holds the per-analyzer evidence table.
//
// The API deliberately mirrors x/tools' Analyzer/Pass/Diagnostic shape,
// so that if the real module ever becomes available the analyzers port
// over with trivial mechanical changes.
package analysis
