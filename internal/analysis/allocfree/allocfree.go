// Package allocfree implements the saqpvet analyzer enforcing the
// zero-allocation contract of //saqp:hotpath functions.
//
// A function marked //saqp:hotpath — and every function it statically
// calls within its package or, cross-package, within the module — must
// not contain heap-allocating constructs. The static check is paired
// with testing.AllocsPerRun guards in each annotated package, so the
// analyzer and the runtime cross-validate: a construct the analyzer
// misses trips the guard, and a guard someone deletes leaves the
// analyzer.
package allocfree

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"saqp/internal/analysis"
	"saqp/internal/analysis/dataflow"
)

// Analyzer flags heap-allocating constructs reachable from functions
// marked //saqp:hotpath.
var Analyzer = &analysis.Analyzer{
	Name: "allocfree",
	Doc: "forbids heap-allocating constructs (growing make/append, closure " +
		"captures, interface boxing of non-pointer values, fmt calls, string " +
		"building) in functions marked //saqp:hotpath and in everything they " +
		"statically call, keeping the per-row serving path allocation-free",
	Run: run,
}

func run(pass *analysis.Pass) error {
	decls := make(map[*types.Func]*ast.FuncDecl)
	var roots []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
			if analysis.IsHotpath(fd) {
				roots = append(roots, fd)
			}
		}
	}
	if len(roots) == 0 {
		return nil
	}

	// Breadth-first closure over intra-package static calls: an
	// annotated function's helpers inherit the contract without needing
	// their own annotation.
	type item struct {
		decl *ast.FuncDecl
		root string
	}
	checked := make(map[*ast.FuncDecl]bool)
	var work []item
	for _, r := range roots {
		work = append(work, item{r, r.Name.Name})
	}
	for len(work) > 0 {
		it := work[0]
		work = work[1:]
		if checked[it.decl] {
			continue
		}
		checked[it.decl] = true
		for _, callee := range checkFunc(pass, it.decl, it.root) {
			if d, ok := decls[callee.Origin()]; ok && !checked[d] {
				work = append(work, item{d, it.root})
			}
		}
	}
	return nil
}

// checkFunc reports every allocating construct in decl and returns the
// same-package callees to fold into the closure.
func checkFunc(pass *analysis.Pass, decl *ast.FuncDecl, root string) []*types.Func {
	info := pass.TypesInfo
	flow := dataflow.New(decl, info)
	suffix := ""
	if !analysis.IsHotpath(decl) {
		suffix = fmt.Sprintf(" (reached from //saqp:hotpath %s)", root)
	}
	var callees []*types.Func
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(node.Pos(),
				"go statement allocates a goroutine on the hot path%s", suffix)
		case *ast.CompositeLit:
			if t := info.TypeOf(node); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					pass.Reportf(node.Pos(), "slice literal allocates on the hot path%s", suffix)
				case *types.Map:
					pass.Reportf(node.Pos(), "map literal allocates on the hot path%s", suffix)
				}
			}
		case *ast.FuncLit:
			if captures(info, pass.Pkg, node) {
				pass.Reportf(node.Pos(),
					"closure captures outer variables and allocates its context on the hot path%s", suffix)
			}
		case *ast.BinaryExpr:
			if node.Op == token.ADD && isString(info.TypeOf(node)) {
				pass.Reportf(node.Pos(),
					"string concatenation allocates on the hot path%s", suffix)
			}
		case *ast.AssignStmt:
			if len(node.Lhs) == len(node.Rhs) {
				for i := range node.Lhs {
					if boxes(info, info.TypeOf(node.Lhs[i]), node.Rhs[i]) {
						pass.Reportf(node.Rhs[i].Pos(),
							"assignment boxes a non-pointer value into an interface%s", suffix)
					}
				}
			}
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(node.Chan).Underlying().(*types.Chan); ok {
				if boxes(info, ch.Elem(), node.Value) {
					pass.Reportf(node.Value.Pos(),
						"send boxes a non-pointer value into an interface%s", suffix)
				}
			}
		case *ast.ReturnStmt:
			checkReturn(pass, flow, decl, node, suffix)
		case *ast.CallExpr:
			callees = append(callees, checkCall(pass, flow, node, suffix)...)
		}
		return true
	})
	return callees
}

// checkCall classifies one call: conversion, builtin, static call or
// dynamic dispatch. It returns same-package callees for the closure.
func checkCall(pass *analysis.Pass, flow *dataflow.Flow, call *ast.CallExpr, suffix string) []*types.Func {
	info := pass.TypesInfo

	// Conversions.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		src := info.TypeOf(call.Args[0])
		if boxes(info, dst, call.Args[0]) {
			pass.Reportf(call.Pos(),
				"conversion boxes a non-pointer value into an interface%s", suffix)
		}
		if stringSliceConversion(dst, src) {
			pass.Reportf(call.Pos(),
				"string/byte-slice conversion copies and allocates on the hot path%s", suffix)
		}
		return nil
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				checkMake(pass, flow, call, suffix)
			case "append":
				pass.Reportf(call.Pos(),
					"append may grow its backing array on the hot path%s", suffix)
			case "new":
				if v, ok := resultVar(info, flow, call); !ok || flow.Escapes(v) {
					pass.Reportf(call.Pos(),
						"new result escapes the function and heap-allocates%s", suffix)
				}
			}
			return nil
		}
	}

	// Argument boxing and variadic packing apply to static and dynamic
	// calls alike; the signature comes from the call's function type.
	if sig, ok := info.TypeOf(call.Fun).(*types.Signature); ok {
		checkArgs(pass, sig, call, suffix)
	}

	fn := analysis.CalleeFunc(info, call)
	if fn == nil {
		if _, inline := ast.Unparen(call.Fun).(*ast.FuncLit); !inline {
			pass.Reportf(call.Pos(),
				"call through a function value cannot be verified allocation-free%s", suffix)
		}
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			pass.Reportf(call.Pos(),
				"dynamically dispatched call to %s cannot be verified allocation-free%s",
				fn.Name(), suffix)
			return nil
		}
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return nil
	}
	if pkg == pass.Pkg {
		return []*types.Func{fn}
	}
	if pkg.Path() == "fmt" {
		pass.Reportf(call.Pos(),
			"fmt.%s formats through reflection and allocates on the hot path%s",
			fn.Name(), suffix)
		return nil
	}
	// Cross-package module callees must carry their own annotation so
	// their own package's allocfree pass (and AllocsPerRun guard)
	// covers them; other imports (stdlib) are trusted as reviewed.
	if annotated, ok := pass.HotpathCallee(fn); ok && !annotated {
		pass.Reportf(call.Pos(),
			"hot path calls %s.%s, which is not marked //saqp:hotpath; annotate it or excuse this call",
			pkg.Name(), fn.Name())
	}
	return nil
}

// checkMake reports makes that must heap-allocate: maps and channels
// always do; slices do when sized by a non-constant expression, and
// when a constant-sized result escapes the function.
func checkMake(pass *analysis.Pass, flow *dataflow.Flow, call *ast.CallExpr, suffix string) {
	info := pass.TypesInfo
	t := info.TypeOf(call)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		pass.Reportf(call.Pos(), "make of a map allocates on the hot path%s", suffix)
	case *types.Chan:
		pass.Reportf(call.Pos(), "make of a channel allocates on the hot path%s", suffix)
	case *types.Slice:
		for _, a := range call.Args[1:] {
			if info.Types[a].Value == nil {
				pass.Reportf(call.Pos(),
					"make with non-constant size allocates on every call%s", suffix)
				return
			}
		}
		if v, ok := resultVar(info, flow, call); !ok || flow.Escapes(v) {
			pass.Reportf(call.Pos(),
				"constant-size make escapes the function and heap-allocates%s", suffix)
		}
	}
}

// checkArgs reports interface boxing of arguments and the slice a
// variadic call packs its arguments into.
func checkArgs(pass *analysis.Pass, sig *types.Signature, call *ast.CallExpr, suffix string) {
	info := pass.TypesInfo
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type()
			} else if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if boxes(info, pt, arg) {
			pass.Reportf(arg.Pos(),
				"argument boxes a non-pointer value into an interface parameter%s", suffix)
		}
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= params.Len() {
		pass.Reportf(call.Pos(),
			"variadic call allocates its argument slice on the hot path%s", suffix)
	}
}

// checkReturn reports boxing at decl's own return statements; returns
// inside nested literals answer to their literal's signature instead
// and are skipped (a capturing literal is already flagged).
func checkReturn(pass *analysis.Pass, flow *dataflow.Flow, decl *ast.FuncDecl, ret *ast.ReturnStmt, suffix string) {
	for p := flow.Parent(ret); p != nil; p = flow.Parent(p) {
		if _, ok := p.(*ast.FuncLit); ok {
			return
		}
	}
	fn, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func)
	if !ok {
		return
	}
	res := fn.Type().(*types.Signature).Results()
	if len(ret.Results) != res.Len() {
		return
	}
	for i, r := range ret.Results {
		if boxes(pass.TypesInfo, res.At(i).Type(), r) {
			pass.Reportf(r.Pos(),
				"return boxes a non-pointer value into an interface result%s", suffix)
		}
	}
}

// captures reports whether lit reads any function-local variable
// declared outside itself — the capture that forces a heap-allocated
// closure context. Package-level variables cost nothing to reference.
func captures(info *types.Info, pkg *types.Package, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == pkg.Scope() || v.Parent() == types.Universe {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			found = true
			return false
		}
		return true
	})
	return found
}

// resultVar resolves the plain local variable a call's result is
// assigned to, if the call is the direct right-hand side of one.
func resultVar(info *types.Info, flow *dataflow.Flow, call *ast.CallExpr) (*types.Var, bool) {
	switch st := flow.Parent(call).(type) {
	case *ast.AssignStmt:
		if len(st.Lhs) != len(st.Rhs) {
			return nil, false
		}
		for i := range st.Rhs {
			if st.Rhs[i] != ast.Expr(call) {
				continue
			}
			if id, ok := ast.Unparen(st.Lhs[i]).(*ast.Ident); ok {
				if v, ok := info.Defs[id].(*types.Var); ok {
					return v, true
				}
				if v, ok := info.Uses[id].(*types.Var); ok {
					return v, true
				}
			}
		}
	case *ast.ValueSpec:
		for i, val := range st.Values {
			if val == ast.Expr(call) && i < len(st.Names) {
				if v, ok := info.Defs[st.Names[i]].(*types.Var); ok {
					return v, true
				}
			}
		}
	}
	return nil, false
}

// boxes reports whether assigning src to a destination of type dst
// stores a non-pointer-shaped concrete value into an interface — the
// conversion that heap-allocates a box.
func boxes(info *types.Info, dst types.Type, src ast.Expr) bool {
	if dst == nil || !types.IsInterface(dst) {
		return false
	}
	st := info.TypeOf(src)
	if st == nil || types.IsInterface(st) {
		return false
	}
	if b, ok := st.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return !pointerShaped(st)
}

// pointerShaped reports whether values of t fit in an interface word
// without boxing: pointers, channels, maps, functions, unsafe.Pointer.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// stringSliceConversion reports string<->[]byte/[]rune conversions,
// which copy their operand.
func stringSliceConversion(dst, src types.Type) bool {
	return (isString(dst) && isByteOrRuneSlice(src)) ||
		(isByteOrRuneSlice(dst) && isString(src))
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
