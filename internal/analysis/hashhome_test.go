package analysis_test

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// hashConstants are the numbers only a definition of FNV-1a or SplitMix64
// needs: FNV-1a's 32- and 64-bit offset bases and SplitMix64's increment.
var hashConstants = map[uint64]string{
	2166136261:           "FNV-1a's 32-bit offset basis (use sim.FNV32a)",
	14695981039346656037: "FNV-1a's 64-bit offset basis (use sim.FNV64a)",
	0x9e3779b97f4a7c15:   "SplitMix64's increment (use sim.Mix64, sim.RNG or sim.Gamma)",
}

// TestDeterministicHashesHaveOneHome holds FNV-1a and SplitMix64 to their
// one definition in internal/sim: no non-test file of another package
// writes one of their constants as an integer literal, in any base. Every
// shuffle bucket, HCS queue, trace id, fault draw and seeded stream hashes
// through internal/sim, so a second copy could drift from the one the
// digests pin. bench/ is left out: its calibration churn loop hashes only
// to keep its garbage live, and decides nothing the program reports.
func TestDeterministicHashesHaveOneHome(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	loader, dirs := moduleLoader(t)
	home := loader.ModulePath + "/internal/sim"
	bench := loader.ModulePath + "/bench"
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		if pkg.Path == home || pkg.Path == bench || strings.HasPrefix(pkg.Path, bench+"/") {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.INT {
					return true
				}
				v, err := strconv.ParseUint(lit.Value, 0, 64)
				if what, hit := hashConstants[v]; err == nil && hit {
					t.Errorf("%s: %s is %s", strings.TrimPrefix(loader.Fset.Position(lit.Pos()).String(), loader.ModuleRoot+string(filepath.Separator)), lit.Value, what)
				}
				return true
			})
		}
	}
}
