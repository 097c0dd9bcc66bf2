package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow saqpvet/<name> suppression comments.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces
	// and why the invariant matters for reproduction fidelity.
	Doc string
	// Scope restricts the analyzer to packages whose import path equals
	// one of the entries or lives under one of them (prefix + "/").
	// Empty means every package. Fixture tests bypass Scope via
	// RunUnscoped.
	Scope []string
	// Run executes the pass and reports findings via pass.Reportf.
	Run func(*Pass) error
}

// AppliesTo reports whether the analyzer's Scope admits the package path.
func (a *Analyzer) AppliesTo(pkgPath string) bool {
	if len(a.Scope) == 0 {
		return true
	}
	for _, s := range a.Scope {
		if pkgPath == s || strings.HasPrefix(pkgPath, s+"/") {
			return true
		}
	}
	return false
}

// Pass carries one analyzed package to an Analyzer.Run. Test files
// (*_test.go) are excluded from Files: saqpvet's invariants govern
// production code, and tests legitimately use exact comparisons and
// timing.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	pkg   *Package
	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, with its position fully resolved.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the familiar file:line:col vet
// format, tagged with the analyzer that produced it.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (saqpvet/%s)", d.Pos, d.Message, d.Analyzer)
}

// Run executes every analyzer whose Scope admits pkg, applies
// //lint:allow suppressions, and returns the surviving diagnostics in
// position order. Malformed suppression directives — unknown analyzer
// names (checked against the full suite, before scope filtering) or
// missing reasons — surface as diagnostics of their own.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	supp, directives := collectSuppressions(pkg)
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		if !a.AppliesTo(pkg.Path) {
			continue
		}
		ds, err := runOne(pkg, a, supp)
		if err != nil {
			return nil, err
		}
		out = append(out, ds...)
	}
	out = append(out, validateDirectives(directives, known)...)
	sortDiagnostics(out)
	return out, nil
}

// RunUnscoped executes a single analyzer regardless of its Scope —
// the entry point for analysistest fixtures, whose package path ("a")
// never matches production scopes. Suppressions still apply, so
// fixtures can also exercise the //lint:allow mechanism; directive
// validation knows only the one analyzer's name here.
func RunUnscoped(pkg *Package, a *Analyzer) ([]Diagnostic, error) {
	supp, directives := collectSuppressions(pkg)
	ds, err := runOne(pkg, a, supp)
	if err != nil {
		return nil, err
	}
	ds = append(ds, validateDirectives(directives, map[string]bool{a.Name: true})...)
	sortDiagnostics(ds)
	return ds, nil
}

func runOne(pkg *Package, a *Analyzer, supp suppressions) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     nonTestFiles(pkg),
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		pkg:       pkg,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path, err)
	}
	var kept []Diagnostic
	for _, d := range pass.diags {
		if supp.allows(a.Name, d.Pos) {
			continue
		}
		kept = append(kept, d)
	}
	return kept, nil
}

func nonTestFiles(pkg *Package) []*ast.File {
	var out []*ast.File
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Package).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, f)
	}
	return out
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// CalleeFunc resolves the called function of a call expression, or nil
// for builtins, function literals and indirect calls through variables.
// Shared by several analyzers.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsContext reports whether t is context.Context. Shared by ctxleak and
// leakcheck.
func IsContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// IsStopChannel reports whether t is a channel of struct{} — the shape
// of ctx.Done() and of the done-channel idiom. Shared by ctxleak and
// leakcheck.
func IsStopChannel(t types.Type) bool {
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}
