package dataset

import "testing"

var (
	hotSinkFloat float64
	hotSinkBool  bool
	hotSinkInt   int
)

// TestHotPathAllocs is the runtime half of the //saqp:hotpath contract
// for the Vector accessors the engine's per-element kernels read through:
// zero heap allocations per call.
func TestHotPathAllocs(t *testing.T) {
	iv, fv, sv := IntVector(KindInt, []int64{7}), FloatVector([]float64{3.5}), StringVector([]string{"abc", "de"})
	cases := []struct {
		name string
		fn   func()
	}{
		{"Vector.Kind", func() { hotSinkBool = sv.Kind() == KindString }},
		{"Vector.Ints", func() { hotSinkInt = int(iv.Ints()[0]) }},
		{"Vector.Floats", func() { hotSinkFloat = fv.Floats()[0] }},
		{"Vector.Strings", func() { hotSinkInt = len(sv.Strings()[1]) }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s allocates %.0f times per call; //saqp:hotpath functions must not allocate", c.name, n)
		}
	}
}
