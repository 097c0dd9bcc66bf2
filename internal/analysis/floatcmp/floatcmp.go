package floatcmp

import (
	"go/ast"
	"go/token"
	"go/types"

	"saqp/internal/analysis"
)

// Analyzer flags exact equality comparisons on floating-point operands.
var Analyzer = &analysis.Analyzer{
	Name: "floatcmp",
	Doc: "flags == and != on float32/float64 operands in the estimator and " +
		"predictor packages; use floats.ApproxEqual(a, b, eps) instead",
	Scope: []string{
		"saqp/internal/selectivity",
		"saqp/internal/predict",
		"saqp/internal/histogram",
		"saqp/internal/trace",
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !isFloat(pass.TypesInfo.TypeOf(be.X)) && !isFloat(pass.TypesInfo.TypeOf(be.Y)) {
				return true
			}
			// A comparison folded entirely at compile time is exact by
			// definition and cannot drift.
			if isConst(pass.TypesInfo, be.X) && isConst(pass.TypesInfo, be.Y) {
				return true
			}
			pass.Reportf(be.OpPos,
				"floating-point %s comparison is sensitive to rounding; use floats.ApproxEqual with an explicit tolerance", be.Op)
			return true
		})
	}
	return nil
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}
