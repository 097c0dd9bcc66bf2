package analysis_test

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptExports are the exported functions and methods of internal/
// packages that no non-test file calls and that stay anyway, each with
// its reason.
var keptExports = map[string]string{
	// References tests compare against.
	"histogram.Build":              "the one-shot histogram Collect's and the arena's builds are held to",
	"catalog.CollectAll":           "collects every table of a relation map, the input of the catalog and estimator digests",
	"catalog.Decode":               "reads an encoded catalog back for the round-trip and compatibility tests",
	"(*catalog.Catalog).Encode":    "the catalog bytes TestCollectDigestPinned and the estimator digests hash",
	"(*plan.DAG).Sink":             "the final job the plan and engine tests read a DAG's answer from",
	"(*mapreduce.Frame).Validate":  "the frame invariants the engine tests check every result against",
	"serve.CacheKey":               "the plan-cache key the cache identity tests pin fingerprints of",
	"obs.MetricTable":              "the metric rows the metrics and fault docs tests compare with",
	"(*obs.Registry).SnapshotJSON": "the registry dump the observability goldens compare",
	"proto.AppendValue":            "the one Value to bytes encoder tests and the fuzzer compare frames by",
	"proto.Array":                  "builds expected frames for AppendValue",
	"proto.Bulk":                   "builds expected frames for AppendValue",
	"proto.BulkString":             "builds expected frames for AppendValue",
	"proto.ErrorValue":             "builds expected frames for AppendValue",
	"proto.Int":                    "builds expected frames for AppendValue",
	"proto.Simple":                 "builds expected frames for AppendValue",
	"dataset.Date":                 "builds expected engine values; Vector.At builds int and date values itself",
	// Accessors for hand-built or external tests.
	"(*cluster.Query).RecomputeWRD": "re-derives WRD after a test edits a hand-built query's tasks",
	"(*cluster.Task).Faulted":       "lets cluster's external fault tests read a task's fault marks",
	"(*cluster.Task).Failures":      "lets cluster's external fault tests read a task's failure count",
	"(*fault.Plan).Slowdowns":       "lets fault's tests read a plan's slowdown windows",
	// Surface the facade re-exports: saqp.Ticket, saqp.NetClient and
	// saqp.NetServer are aliases, so their users call these.
	"(*serve.Ticket).Done":  "a facade Ticket's completion channel",
	"(*net.Client).Metrics": "a facade NetClient's METRICS command",
	"(*net.Server).Close":   "a facade NetServer's immediate close",
}

// TestInternalExportsHaveProductCallers is the export census: every
// exported function and method of an internal/ package (internal/analysis
// aside) is called from a non-test file of the module (another internal
// package, bench/, cmd/, examples/ or the facade) or is on keptExports.
// A kept entry that gains a product caller, or names nothing, is stale.
// A use inside the function's own body does not count; a method that
// implements an interface the module uses is called through it and is
// left out.
func TestInternalExportsHaveProductCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	loader, dirs := moduleLoader(t)
	internal := loader.ModulePath + "/internal/"
	linter := loader.ModulePath + "/internal/analysis"

	bodies := make(map[*types.Func]*ast.BlockStmt) // the exports, with their bodies
	called := make(map[*types.Func]bool)
	// The interfaces the module uses: those it declares or that type an
	// expression (a parameter of a called function included), and
	// fmt.Stringer, which fmt calls through any.
	ifaces := map[types.Type]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[t] = true
		}
	}

	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		product := strings.HasPrefix(pkg.Path, internal) && !strings.HasPrefix(pkg.Path, linter)
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && product && fd.Name.IsExported() {
					bodies[pkg.TypesInfo.Defs[fd.Name].(*types.Func)] = fd.Body
				}
			}
		}
		for _, name := range pkg.Types.Scope().Names() {
			if tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Types.Imports() {
			if imp.Path() == "fmt" {
				addIface(imp.Scope().Lookup("Stringer").Type())
			}
		}
		for _, tv := range pkg.TypesInfo.Types {
			addIface(tv.Type)
			if sig, ok := tv.Type.(*types.Signature); ok {
				for i := 0; i < sig.Params().Len(); i++ {
					addIface(sig.Params().At(i).Type())
				}
			}
		}
		for id, obj := range pkg.TypesInfo.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if body := bodies[fn]; body != nil && body.Pos() <= id.Pos() && id.Pos() < body.End() {
				continue // recursion
			}
			called[fn] = true
		}
	}

	var findings []string
	declared := make(map[string]bool)
	for fn := range bodies {
		name := exportName(fn)
		declared[name] = true
		_, kept := keptExports[name]
		switch {
		case called[fn] && kept:
			findings = append(findings, name+" has a product caller: take it off keptExports")
		case !called[fn] && !kept && !implementsUsedInterface(fn, ifaces):
			findings = append(findings, fmt.Sprintf("%s (%s) has no caller outside tests: delete it, let its tests use a product path, or keep it with a reason",
				name, strings.TrimPrefix(loader.Fset.Position(fn.Pos()).String(), loader.ModuleRoot+string(filepath.Separator))))
		}
	}
	for name := range keptExports {
		if !declared[name] {
			findings = append(findings, "keptExports names "+name+", which no internal package declares")
		}
	}
	sort.Strings(findings)
	for _, f := range findings {
		t.Error(f)
	}
}

// implementsUsedInterface reports whether fn is a method of a type T
// such that T or *T implements one of ifaces holding a method of fn's
// name.
func implementsUsedInterface(fn *types.Func, ifaces map[types.Type]bool) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	ptr := recv.Type()
	if _, ok := ptr.(*types.Pointer); !ok {
		ptr = types.NewPointer(ptr)
	}
	for t := range ifaces {
		it := t.Underlying().(*types.Interface)
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && types.Implements(ptr, it) {
				return true
			}
		}
	}
	return false
}

// exportName renders fn as keptExports spells it: pkg.Func, pkg.T.Method
// or (*pkg.T).Method, by package name.
func exportName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	t := types.TypeString(recv.Type(), (*types.Package).Name)
	if strings.HasPrefix(t, "*") {
		t = "(" + t + ")"
	}
	return t + "." + fn.Name()
}
