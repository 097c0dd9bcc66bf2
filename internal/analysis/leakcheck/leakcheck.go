// Package leakcheck implements the saqpvet analyzer requiring every
// go statement to have a visible join or stop path. A goroutine with
// no WaitGroup.Done, no stop-channel receive, no close of a shared
// channel, no context and no range-over-channel has no way to be
// joined or told to exit — under the serving engine's pool and the
// learn registry's feedback loop, that is a leak the race detector
// cannot see because nothing ever touches the stuck goroutine again.
//
// The check is syntactic over the goroutine's body: a function
// literal's own body, or the resolved declaration for a same-package
// named call (go e.worker()). Dynamically dispatched targets cannot be
// inspected and are flagged for review.
package leakcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"saqp/internal/analysis"
)

// Analyzer flags goroutines without a visible join or stop path.
var Analyzer = &analysis.Analyzer{
	Name: "leakcheck",
	Doc: "requires every go statement's body to contain a visible join or " +
		"stop path — WaitGroup.Done, a stop-channel receive, close of a " +
		"shared channel, a context, or ranging over a channel — so no " +
		"goroutine can outlive its work invisibly",
	Run: run,
}

func run(pass *analysis.Pass) error {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body := goBody(pass, decls, g.Call)
			switch {
			case body == nil:
				pass.Reportf(g.Pos(),
					"goroutine target is not statically resolvable; inline it, name a package function, or excuse with //lint:allow saqpvet/leakcheck")
			case !hasStopPath(pass.TypesInfo, body):
				pass.Reportf(g.Pos(),
					"goroutine has no visible join or stop path (WaitGroup.Done, stop-channel receive, close of a shared channel, context, or range over a channel); it can leak")
			}
			return true
		})
	}
	return nil
}

// goBody resolves the block the goroutine will execute: a literal's
// body, or the declaration of a same-package function or method.
func goBody(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl, call *ast.CallExpr) *ast.BlockStmt {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return lit.Body
	}
	if fn := analysis.CalleeFunc(pass.TypesInfo, call); fn != nil {
		if d, ok := decls[fn]; ok {
			return d.Body
		}
	}
	return nil
}

// hasStopPath reports whether body contains any construct that joins
// the goroutine or lets it observe a stop request.
func hasStopPath(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch node := n.(type) {
		case *ast.CallExpr:
			if fn := analysis.CalleeFunc(info, node); fn != nil &&
				fn.FullName() == "(*sync.WaitGroup).Done" {
				found = true
			}
			if closesSharedChannel(info, body, node) {
				found = true
			}
		case *ast.UnaryExpr:
			if node.Op == token.ARROW && analysis.IsStopChannel(info.TypeOf(node.X)) {
				found = true
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(node.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.Ident:
			// A context value in scope is a stop signal even when only
			// consulted via ctx.Err().
			if v, ok := info.Uses[node].(*types.Var); ok && analysis.IsContext(v.Type()) {
				found = true
			}
		}
		return !found
	})
	return found
}

// closesSharedChannel reports whether call is close(ch) for a channel
// declared outside body — the producer idiom where the close itself is
// the completion signal consumers join on.
func closesSharedChannel(info *types.Info, body *ast.BlockStmt, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "close" {
		return false
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	if len(call.Args) != 1 {
		return false
	}
	ch, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := info.Uses[ch].(*types.Var)
	if !ok {
		return false
	}
	return v.Pos() < body.Pos() || v.Pos() > body.End()
}
