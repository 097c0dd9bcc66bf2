package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotpathDirective marks a function as part of the zero-allocation
// serving hot path. It goes on its own line at the end of the doc
// comment, directive-style (no space after //):
//
//	// evalPred evaluates one predicate against one value.
//	//
//	//saqp:hotpath
//	func evalPred(num float64, str string, p *query.Predicate) bool { ... }
//
// The allocfree analyzer checks every annotated function — and every
// function it statically calls — for heap-allocating constructs, and
// each annotated function is expected to carry a testing.AllocsPerRun
// guard as the dynamic twin of the static check.
const HotpathDirective = "//saqp:hotpath"

// IsHotpath reports whether decl's doc comment carries the
// //saqp:hotpath directive.
func IsHotpath(decl *ast.FuncDecl) bool {
	if decl == nil || decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if strings.TrimSpace(c.Text) == HotpathDirective {
			return true
		}
	}
	return false
}

// HotpathCallee reports whether fn — a function of another module
// package — carries //saqp:hotpath at its declaration. The Loader has
// already parsed (comments on) and cached every module package the
// analyzed one imports, so the callee's FuncDecl is in memory. ok is
// false when fn's package was not loaded from module source (standard
// library, or anything seen from an analysistest fixture): callers
// treat that as "not checked".
func (p *Pass) HotpathCallee(fn *types.Func) (annotated, ok bool) {
	if fn == nil || fn.Pkg() == nil {
		return false, false
	}
	res := p.pkg.loader.pkgs[fn.Pkg().Path()]
	if res == nil || res.pkg == nil {
		return false, false
	}
	return res.pkg.hotpathFuncs()[fn.Origin()], true
}

// hotpathFuncs is the package's annotated-function set, built on first
// use.
func (pkg *Package) hotpathFuncs() map[*types.Func]bool {
	if pkg.hotpath == nil {
		pkg.hotpath = make(map[*types.Func]bool)
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if decl, isFunc := d.(*ast.FuncDecl); isFunc && IsHotpath(decl) {
					if fn, isDef := pkg.TypesInfo.Defs[decl.Name].(*types.Func); isDef {
						pkg.hotpath[fn] = true
					}
				}
			}
		}
	}
	return pkg.hotpath
}
