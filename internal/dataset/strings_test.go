package dataset

import (
	"testing"
	"unsafe"
)

// TestStringColumnValuesPinned holds every value stringColumn cuts to the
// one-value mapping: over every TPC-H and TPC-DS string column at three
// scale factors and two seeds, each row's value is makeString of the key it
// was drawn from, exactly width bytes long, and starts on a 16-byte
// boundary, as a string allocated on its own would. Both layouts are
// covered: one slot per row (more keys than rows) and one per distinct key.
func TestStringColumnValuesPinned(t *testing.T) {
	perRow, perKey := 0, 0
	for _, sf := range []float64{0.002, 0.01, 0.05} {
		for _, seed := range []uint64{1, 42} {
			for _, s := range Schemas() {
				rel := Generate(s, sf, seed)
				for j := range s.Columns {
					c := &s.Columns[j]
					if c.Kind != KindString {
						continue
					}
					if c.Card(sf) > rel.NumRows() {
						perRow++
					} else {
						perKey++
					}
					width, keys := c.AvgWidth(), rel.Keys(j)
					for i, v := range rel.Cols[j].Strings() {
						if want := makeString(c.Name, keys[i], width); v != want {
							t.Fatalf("sf %g seed %d %s.%s row %d: %q, want %q", sf, seed, s.Name, c.Name, i, v, want)
						}
						if len(v) != width {
							t.Fatalf("sf %g seed %d %s.%s row %d: width %d, want %d", sf, seed, s.Name, c.Name, i, len(v), width)
						}
						if p := uintptr(unsafe.Pointer(unsafe.StringData(v))); p%16 != 0 {
							t.Fatalf("sf %g seed %d %s.%s row %d: value at %#x is not 16-byte aligned", sf, seed, s.Name, c.Name, i, p)
						}
					}
				}
			}
		}
	}
	t.Logf("string columns: %d with a slot per row, %d with a slot per key", perRow, perKey)
	if perRow == 0 || perKey == 0 {
		t.Fatalf("string columns: %d with a slot per row, %d with a slot per key; both layouts must be covered", perRow, perKey)
	}
}
