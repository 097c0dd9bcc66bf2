// Quickstart: compile an analytic query, inspect its MapReduce plan and
// semantics-aware selectivity estimates, then execute it for real in the
// in-memory MapReduce engine and compare estimated vs measured sizes.
//
// This walks the paper's Section 3.2 example (modified TPC-H Q11) end to
// end: two join jobs and one groupby job, with the nation predicate's
// selectivity percolating along the query tree.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"saqp"
)

const q11 = `
SELECT ps_partkey, sum(ps_supplycost*ps_availqty)
FROM nation n JOIN supplier s ON
  s.s_nationkey = n.n_nationkey AND n.n_name <> 'n_name#b~~~~'
JOIN partsupp ps ON
  ps.ps_suppkey = s.s_suppkey
GROUP BY ps_partkey`

func main() {
	// A framework over offline statistics for the full-scale database...
	fw, err := saqp.NewFramework(saqp.Options{ScaleFactor: 1})
	if err != nil {
		log.Fatal(err)
	}

	dag, err := fw.Compile(q11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Compiled plan (cross-layer semantics percolation keeps")
	fmt.Println("operators, predicates and dependencies attached):")
	for _, j := range dag.Jobs {
		fmt.Printf("  %s\n", j.Label())
	}

	est, err := fw.Estimate(dag)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nSelectivity estimation at scale factor 1 (≈1 GB TPC-H):")
	for _, je := range est.Jobs {
		fmt.Printf("  %-2s %-8s IS=%.4f FS=%.4f  est output tuples=%.0f\n",
			je.Job.ID, je.Job.Type, je.IS, je.FS, je.OutRows)
	}
	fmt.Println("\n  (paper: the 96% nation predicate relays through both joins;")
	fmt.Println("   the groupby cardinality approaches the 200,000 partkey domain)")

	// ...and ground truth: the same plan executed over materialised data at
	// laptop scale (sf 0.01) in the real MapReduce engine.
	fwSmall, err := saqp.NewFramework(saqp.Options{ScaleFactor: 0.01})
	if err != nil {
		log.Fatal(err)
	}
	estSmall, err := fwSmall.Estimate(dag)
	if err != nil {
		log.Fatal(err)
	}
	engine := saqp.NewEngine(0.01, 42)
	res, err := engine.RunQuery(dag)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nEstimated vs measured output tuples (sf 0.01, real execution):")
	for _, je := range estSmall.Jobs {
		st := res.Stats[je.Job.ID]
		fmt.Printf("  %-2s estimated=%8.0f  measured=%8d\n", je.Job.ID, je.OutRows, st.OutRows)
	}
	fmt.Printf("\nFinal result: %d groups", res.Final.NumRows())
	if res.Final.NumRows() > 0 {
		fmt.Printf("; first row: %v", res.Final.Row(0))
	}
	fmt.Println()
}
