package allocfree_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"saqp/internal/analysis"
	"saqp/internal/analysis/allocfree"
	"saqp/internal/analysis/analysistest"
)

func TestFixture(t *testing.T) {
	analysistest.Run(t, allocfree.Analyzer, "testdata/src/a")
}

func TestBrokenFixtureFires(t *testing.T) {
	diags := analysistest.RunBroken(t, allocfree.Analyzer, "testdata/src/broken")
	// The broken fixture's one hot path must trip at least the fmt ban
	// and the string-concatenation rule.
	var fmtHit, concatHit bool
	for _, d := range diags {
		switch {
		case d.Message[:4] == "fmt.":
			fmtHit = true
		case len(d.Message) >= 6 && d.Message[:6] == "string":
			concatHit = true
		}
	}
	if !fmtHit || !concatHit {
		t.Errorf("want fmt and string-concat findings, got: %v", diags)
	}
}

// TestCrossPackageCalleeMustBeAnnotated drives the one rule fixtures
// cannot (they load with standard-library imports only): through the
// module Loader, a //saqp:hotpath function calling an unannotated
// function of another module package is reported, and stops being
// reported once the callee carries the annotation itself.
func TestCrossPackageCalleeMustBeAnnotated(t *testing.T) {
	const caller = `package hot

import "tmpmod/dep"

// Sum is the annotated caller.
//
//saqp:hotpath
func Sum(a, b int) int { return dep.Add(a, b) + dep.Acc{}.Twice(a) }
`
	const callee = `package dep

// Add is a plain function.
%s
func Add(a, b int) int { return a + b }

// Acc has a method callee.
type Acc struct{}

// Twice is a method.
%s
func (Acc) Twice(a int) int { return 2 * a }
`
	check := func(addNote, twiceNote string) []analysis.Diagnostic {
		t.Helper()
		root := t.TempDir()
		files := map[string]string{
			"go.mod":     "module tmpmod\n",
			"hot/hot.go": caller,
			"dep/dep.go": fmt.Sprintf(callee, addNote, twiceNote),
		}
		for name, src := range files {
			path := filepath.Join(root, name)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		loader, err := analysis.NewLoader(root)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := loader.LoadDir(filepath.Join(root, "hot"))
		if err != nil {
			t.Fatal(err)
		}
		diags, err := analysis.Run(pkg, []*analysis.Analyzer{allocfree.Analyzer})
		if err != nil {
			t.Fatal(err)
		}
		return diags
	}

	const note = "//\n//saqp:hotpath"
	diags := check("", "")
	if len(diags) != 2 ||
		!strings.Contains(diags[0].Message, "hot path calls dep.Add, which is not marked //saqp:hotpath") ||
		!strings.Contains(diags[1].Message, "hot path calls dep.Twice, which is not marked //saqp:hotpath") {
		t.Errorf("unannotated callees: want dep.Add and dep.Twice reported, got %v", diags)
	}
	if diags := check(note, ""); len(diags) != 1 || !strings.Contains(diags[0].Message, "dep.Twice") {
		t.Errorf("Add annotated: want only dep.Twice reported, got %v", diags)
	}
	if diags := check(note, note); len(diags) != 0 {
		t.Errorf("both callees annotated: want no findings, got %v", diags)
	}
}
