package repro_test

import (
	"fmt"

	"saqp/internal/repro"
)

// ExampleReproduceTable2 prints the paper's workload composition table.
func ExampleReproduceTable2() {
	for _, r := range repro.ReproduceTable2() {
		fmt.Printf("bin %d (%s): bing=%d facebook=%d\n", r.Bin, r.InputDesc, r.Bing, r.Facebook)
	}
	// Output:
	// bin 1 (1-10 GB): bing=44 facebook=85
	// bin 2 (20 GB): bing=8 facebook=4
	// bin 3 (50 GB): bing=24 facebook=8
	// bin 4 (100 GB): bing=22 facebook=2
	// bin 5 (>100 GB): bing=2 facebook=1
}
