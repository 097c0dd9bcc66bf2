package mapreduce

import (
	"go/build"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestEngineSharesNoCodeWithTheEstimator holds the engine to being a truth
// the estimator did not compute: neither the package nor anything it
// imports from this module, test files aside, may be one of the
// estimator's packages. What the two must agree on about the data (a
// column's domain, a table's fragmentation) lives in internal/dataset.
func TestEngineSharesNoCodeWithTheEstimator(t *testing.T) {
	const module = "saqp/"
	estimator := []string{"selectivity", "catalog", "histogram", "predict"}
	root := filepath.Join("..", "..")
	seen := map[string]bool{}
	queue := []string{"saqp/internal/mapreduce"}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		pkg, err := build.ImportDir(filepath.Join(root, strings.TrimPrefix(path, module)), 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			if !strings.HasPrefix(imp, module) || seen[imp] {
				continue
			}
			seen[imp] = true
			if slices.Contains(estimator, filepath.Base(imp)) {
				t.Errorf("%s imports the estimator's package %s", path, imp)
			}
			queue = append(queue, imp)
		}
	}
}
