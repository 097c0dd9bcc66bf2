// Package registry declares the saqpvet analyzer suite in one place.
// The analysis package's repository self-test (TestRepositoryIsClean,
// the suite's one driver) runs this list over the whole module, so an
// analyzer added here is enforced by `go test ./...` and `make lint` —
// and one forgotten here is enforced nowhere, which is why nothing
// else declares its own list. docs/ANALYSIS.md records why each entry
// is here (TestAnalysisDocAgrees keeps the two in step).
package registry

import (
	"saqp/internal/analysis"
	"saqp/internal/analysis/allocfree"
	"saqp/internal/analysis/ctxleak"
	"saqp/internal/analysis/determinism"
	"saqp/internal/analysis/doccheck"
	"saqp/internal/analysis/errdrop"
	"saqp/internal/analysis/floatcmp"
	"saqp/internal/analysis/leakcheck"
	"saqp/internal/analysis/lockcheck"
)

// All returns the full saqpvet analyzer suite in reporting order. It
// returns a fresh slice each call so no caller can reorder or truncate
// another's view of the suite.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.Analyzer,
		doccheck.Analyzer,
		floatcmp.Analyzer,
		lockcheck.Analyzer,
		errdrop.Analyzer,
		allocfree.Analyzer,
		ctxleak.Analyzer,
		leakcheck.Analyzer,
	}
}
