package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("saqp/internal/sim", or the package name
	// for analysistest fixtures).
	Path      string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info

	// loader is the Loader that produced the package; it still holds
	// every module package this one imports (see Pass.HotpathCallee).
	loader  *Loader
	hotpath map[*types.Func]bool
}

// Loader parses and type-checks packages of one module without any
// external tooling: module-local imports are resolved against the
// module root and type-checked from source recursively; standard
// library imports go through go/importer's source compiler, which reads
// GOROOT and therefore works fully offline.
type Loader struct {
	Fset       *token.FileSet
	ModulePath string
	ModuleRoot string

	std  types.Importer
	pkgs map[string]*loadResult
}

type loadResult struct {
	pkg *Package
	err error
	// loading marks an in-progress load for import-cycle detection.
	loading bool
}

var moduleRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// NewLoader returns a loader for the module rooted at root (the
// directory containing go.mod).
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: module root: %w", err)
	}
	m := moduleRE.FindSubmatch(data)
	if m == nil {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", abs)
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModulePath: string(m[1]),
		ModuleRoot: abs,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*loadResult),
	}, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// LoadDir loads the package in dir, which must live under the module
// root. Test files are skipped: the package is loaded exactly as a
// downstream importer would see it.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("analysis: %s is outside module root %s", dir, l.ModuleRoot)
	}
	path := l.ModulePath
	if rel != "." {
		path = l.ModulePath + "/" + filepath.ToSlash(rel)
	}
	return l.load(path, abs)
}

// LoadFixtureDir loads dir as a standalone package (an analysistest
// fixture): only standard-library imports are available, and the import
// path is the package's own name.
func LoadFixtureDir(dir string) (*Package, error) {
	fset := token.NewFileSet()
	l := &Loader{
		Fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: make(map[string]*loadResult),
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in fixture %s", dir)
	}
	return l.check(files[0].Name.Name, files)
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if res, ok := l.pkgs[path]; ok {
		if res.loading {
			return nil, fmt.Errorf("analysis: import cycle through %s", path)
		}
		return res.pkg, res.err
	}
	res := &loadResult{loading: true}
	l.pkgs[path] = res
	res.pkg, res.err = l.loadUncached(path, dir)
	res.loading = false
	return res.pkg, res.err
}

func (l *Loader) loadUncached(path, dir string) (*Package, error) {
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}
	return l.check(path, files)
}

func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, filepath.Join(dir, name))
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func (l *Loader) check(path string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := &types.Config{Importer: importerFunc(l.importPkg)}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typecheck %s: %w", path, err)
	}
	return &Package{
		Path:      path,
		Fset:      l.Fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
		loader:    l,
	}, nil
}

func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.ModulePath != "" &&
		(path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")) {
		dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")))
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// importerFunc adapts a function to types.Importer, like the unexported
// helper in go/importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// ModuleDirs returns every directory under root that contains at least
// one non-test Go file, skipping testdata, hidden and underscore
// directories — the expansion of "./..." for the repository self-tests.
func ModuleDirs(root string) ([]string, error) {
	var dirs []string
	// WalkDir interleaves a directory's files with descents into its
	// subdirectories, so dedup needs a set — comparing against the last
	// appended entry would record the same directory once per run of
	// files between subdirectory visits.
	seen := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			if !seen[dir] {
				seen[dir] = true
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}
