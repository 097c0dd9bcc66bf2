// Package ctxleak implements the saqpvet analyzer guarding context
// plumbing: once a function accepts a context.Context, every blocking
// construct in it must honor that context, and nothing outside package
// main (or tests) may mint a fresh root context.
//
// Three rules, built on the dataflow tier's derivation closure:
//
//  1. context.Background() and context.TODO() are forbidden outside
//     package main — they sever the caller's cancellation chain.
//  2. A context-typed argument in a call must derive from the
//     function's own ctx parameter (directly, or through context.With*
//     wrappers); passing an unrelated context silently detaches the
//     callee from cancellation.
//  3. A channel send or receive in a ctx-accepting function must sit
//     in a select that also waits on a struct{} stop channel (such as
//     <-ctx.Done()); a bare receive from a struct{} channel is itself
//     a stop wait and is exempt.
package ctxleak

import (
	"go/ast"
	"go/token"
	"go/types"

	"saqp/internal/analysis"
	"saqp/internal/analysis/dataflow"
)

// Analyzer flags places where cancellation silently dies.
var Analyzer = &analysis.Analyzer{
	Name: "ctxleak",
	Doc: "requires a context.Context parameter to flow into every blocking " +
		"call and channel operation of its function, and forbids " +
		"context.Background()/TODO() outside package main and tests, so " +
		"cancellation reaches every wait",
	Run: run,
}

func run(pass *analysis.Pass) error {
	isMain := pass.Pkg.Name() == "main"
	for _, f := range pass.Files {
		if !isMain {
			checkRootContexts(pass, f)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ctx := ctxParam(pass.TypesInfo, fd)
			if ctx == nil {
				continue
			}
			flow := dataflow.New(fd, pass.TypesInfo)
			checkContextArgs(pass, flow, fd, ctx)
			checkChannelOps(pass, flow, fd, ctx)
		}
	}
	return nil
}

// checkRootContexts reports every context.Background/TODO call.
func checkRootContexts(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
			return true
		}
		if fn.Name() == "Background" || fn.Name() == "TODO" {
			pass.Reportf(call.Pos(),
				"context.%s severs the caller's cancellation chain; accept and thread a ctx parameter (allowed only in package main and tests)",
				fn.Name())
		}
		return true
	})
}

// ctxParam returns the function's first context.Context parameter, or
// nil when it has none.
func ctxParam(info *types.Info, fd *ast.FuncDecl) *types.Var {
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if v, ok := info.Defs[name].(*types.Var); ok && analysis.IsContext(v.Type()) {
				return v
			}
		}
	}
	return nil
}

// checkContextArgs enforces rule 2: context-typed arguments must
// derive from ctx. Arguments mentioning no variable at all (a direct
// context.Background() call, a nil literal) are rule 1's business.
func checkContextArgs(pass *analysis.Pass, flow *dataflow.Flow, fd *ast.FuncDecl, ctx *types.Var) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			if !analysis.IsContext(pass.TypesInfo.TypeOf(arg)) {
				continue
			}
			if !mentionsVar(pass.TypesInfo, arg) {
				continue
			}
			if !flow.ExprDerivesFrom(arg, ctx) {
				pass.Reportf(arg.Pos(),
					"call passes a context not derived from parameter %s; cancellation is severed here", ctx.Name())
			}
		}
		return true
	})
}

func mentionsVar(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if _, isVar := info.Uses[id].(*types.Var); isVar {
				found = true
			}
		}
		return !found
	})
	return found
}

// checkChannelOps enforces rule 3 on sends and receives in fd's body,
// including inside its function literals (a goroutine the function
// spawns still owes its waits to the same context).
func checkChannelOps(pass *analysis.Pass, flow *dataflow.Flow, fd *ast.FuncDecl, ctx *types.Var) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch op := n.(type) {
		case *ast.SendStmt:
			if !opCancellable(pass.TypesInfo, flow, op) {
				pass.Reportf(op.Arrow,
					"channel send can block without honoring %s; select on it together with <-%s.Done()",
					ctx.Name(), ctx.Name())
			}
		case *ast.UnaryExpr:
			if op.Op != token.ARROW {
				return true
			}
			if analysis.IsStopChannel(pass.TypesInfo.TypeOf(op.X)) {
				return true // a done-channel receive is itself a stop wait
			}
			if !opCancellable(pass.TypesInfo, flow, op) {
				pass.Reportf(op.OpPos,
					"channel receive can block without honoring %s; select on it together with <-%s.Done()",
					ctx.Name(), ctx.Name())
			}
		}
		return true
	})
}

// opCancellable reports whether the channel operation sits in a select
// that also waits on a struct{} stop channel.
func opCancellable(info *types.Info, flow *dataflow.Flow, op ast.Node) bool {
	for p := flow.Parent(op); p != nil; p = flow.Parent(p) {
		sel, ok := p.(*ast.SelectStmt)
		if !ok {
			continue
		}
		for _, clause := range sel.Body.List {
			comm, ok := clause.(*ast.CommClause)
			if !ok || comm.Comm == nil {
				continue
			}
			if recv := commReceive(comm.Comm); recv != nil && analysis.IsStopChannel(info.TypeOf(recv.X)) {
				return true
			}
		}
		return false
	}
	return false
}

// commReceive unwraps a comm clause to its receive operation, if any.
func commReceive(stmt ast.Stmt) *ast.UnaryExpr {
	var e ast.Expr
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		e = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			e = s.Rhs[0]
		}
	}
	u, ok := ast.Unparen(e).(*ast.UnaryExpr)
	if !ok || u.Op != token.ARROW {
		return nil
	}
	return u
}
