package analysis_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"saqp/internal/analysis"
	"saqp/internal/analysis/registry"
)

// TestRepositoryIsClean runs the full saqpvet analyzer suite
// (registry.All()) over every package in the module and fails on any
// diagnostic, printed as file:line:col: message (saqpvet/<analyzer>).
// It is the suite's one driver — tier-1 `go test ./...` and `make lint`
// both reach the tree through it: a change that reintroduces time.Now
// in the simulator, a raw float comparison in the estimator, a heap
// allocation on a //saqp:hotpath function, or a dropped error anywhere
// in internal/ fails here.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	loader, dirs := moduleLoader(t)
	suite := registry.All()
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		diags, err := analysis.Run(pkg, suite)
		if err != nil {
			t.Fatalf("analyze %s: %v", pkg.Path, err)
		}
		for _, d := range diags {
			// Module-relative, the path `go vet` prints from the root.
			t.Errorf("%s", strings.TrimPrefix(d.String(), loader.ModuleRoot+string(filepath.Separator)))
		}
	}
}

// TestDeterminismScopeCoversSeededImporters enforces the implication
// declared next to SeededCorePackages: any saqp/internal package that
// imports a seeded-core package is itself part of the deterministic
// execution graph and must appear in DeterministicPackages. Without
// this, a new package could wrap the simulator and leak wall-clock
// reads into seeded runs while staying outside the analyzer's scope.
func TestDeterminismScopeCoversSeededImporters(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	loader, dirs := moduleLoader(t)
	declared := make(map[string]bool, len(analysis.DeterministicPackages))
	for _, p := range analysis.DeterministicPackages {
		declared[p] = true
	}
	seeded := make(map[string]bool, len(analysis.SeededCorePackages))
	for _, p := range analysis.SeededCorePackages {
		seeded[p] = true
	}
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		if !strings.HasPrefix(pkg.Path, "saqp/internal/") ||
			strings.HasPrefix(pkg.Path, "saqp/internal/analysis") {
			continue // the contract covers runtime packages, not the linter
		}
		if declared[pkg.Path] {
			continue
		}
		for _, imp := range pkg.Types.Imports() {
			if seeded[imp.Path()] {
				t.Errorf("%s imports seeded-core package %s but is missing from analysis.DeterministicPackages",
					pkg.Path, imp.Path())
			}
		}
	}
}

// TestHotpathPackagesHaveAllocGuard enforces the dynamic half of the
// //saqp:hotpath contract: every module package with an annotated
// function carries a TestHotPathAllocs in its _test.go files, so plain
// `go test ./...` measures each annotated package with
// testing.AllocsPerRun — no hand-kept package list to forget.
func TestHotpathPackagesHaveAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	loader, dirs := moduleLoader(t)
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		annotated := 0
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && analysis.IsHotpath(fd) {
					annotated++
				}
			}
		}
		if annotated == 0 {
			continue
		}
		tests, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		guarded := false
		for _, name := range tests {
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			guarded = guarded || bytes.Contains(src, []byte("\nfunc TestHotPathAllocs(t *testing.T)"))
		}
		if !guarded {
			t.Errorf("%s has %d //saqp:hotpath functions but no TestHotPathAllocs guard in its _test.go files",
				pkg.Path, annotated)
		}
	}
}

// TestAnalysisDocAgrees keeps docs/ANALYSIS.md's evidence table equal
// to the registry: the rows marked kept are exactly registry.All(), in
// order, each with its analyzer's scope; a row marked deleted names
// nothing still registered.
func TestAnalysisDocAgrees(t *testing.T) {
	doc, err := os.ReadFile("../../docs/ANALYSIS.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := regexp.MustCompile("(?m)^\\| `([a-z]+)` \\| ([^|]+) \\|(?:[^|]+\\|){3} \\*\\*(kept|deleted)\\*\\*").
		FindAllStringSubmatch(string(doc), -1)
	suite := registry.All()
	registered := make(map[string]bool, len(suite))
	for _, a := range suite {
		registered[a.Name] = true
	}
	var kept [][]string
	for _, r := range rows {
		switch {
		case r[3] == "kept":
			kept = append(kept, r)
		case registered[r[1]]:
			t.Errorf("docs/ANALYSIS.md marks %s deleted, but registry.All() still runs it", r[1])
		}
	}
	if len(kept) != len(suite) {
		t.Fatalf("%d kept rows in docs/ANALYSIS.md, %d analyzers in registry.All()", len(kept), len(suite))
	}
	for i, a := range suite {
		scope := "whole module"
		switch {
		// The determinism scope aliases the declared list; the doc
		// names the list and its length rather than its 14 entries.
		case len(a.Scope) > 0 && &a.Scope[0] == &analysis.DeterministicPackages[0]:
			scope = fmt.Sprintf("`analysis.DeterministicPackages` (%d packages)", len(a.Scope))
		case len(a.Scope) > 0:
			scope = "`" + strings.Join(a.Scope, "`, `") + "`"
		}
		if kept[i][1] != a.Name || strings.TrimSpace(kept[i][2]) != scope {
			t.Errorf("row %d: doc has %s | %s, registry has %s | %s", i, kept[i][1], kept[i][2], a.Name, scope)
		}
	}
}

// moduleLoader resolves the module root from the test's working
// directory and enumerates its package directories. The loader is
// shared by the self-tests (none runs in parallel), so the module is
// type-checked once per `go test` run rather than once per test.
func moduleLoader(t *testing.T) (*analysis.Loader, []string) {
	t.Helper()
	if sharedLoader != nil {
		return sharedLoader, sharedDirs
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := analysis.FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := analysis.ModuleDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	sharedLoader, sharedDirs = loader, dirs
	return loader, dirs
}

var (
	sharedLoader *analysis.Loader
	sharedDirs   []string
)
