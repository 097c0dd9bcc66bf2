package saqp_test

import (
	"fmt"
	"log"

	"saqp"
)

// Example walks the core pipeline: compile a query to a MapReduce DAG,
// estimate its per-job selectivities (paper Section 3), and inspect the
// resource usage the scheduler would see.
func Example() {
	fw, err := saqp.NewFramework(saqp.Options{ScaleFactor: 1})
	if err != nil {
		log.Fatal(err)
	}
	dag, err := fw.Compile(`SELECT c_mktsegment, count(*) FROM customer
		JOIN orders ON o_custkey = c_custkey GROUP BY c_mktsegment`)
	if err != nil {
		log.Fatal(err)
	}
	est, err := fw.Estimate(dag)
	if err != nil {
		log.Fatal(err)
	}
	for _, je := range est.Jobs {
		fmt.Printf("%s %s maps=%d reduces=%d\n",
			je.Job.ID, je.Job.Type, je.NumMaps, je.NumReduces)
	}
	// Output:
	// J1 Join maps=2 reduces=1
	// J2 Groupby maps=1 reduces=1
}

// ExampleFramework_Compile shows cross-layer semantics percolation: the
// compiled DAG retains operators and dependencies for the scheduler.
func ExampleFramework_Compile() {
	fw, _ := saqp.NewFramework(saqp.Options{})
	dag, err := fw.Compile(`SELECT ps_partkey, sum(ps_supplycost*ps_availqty)
		FROM nation n JOIN supplier s ON s.s_nationkey = n.n_nationkey
		JOIN partsupp ps ON ps.ps_suppkey = s.s_suppkey
		GROUP BY ps_partkey`)
	if err != nil {
		log.Fatal(err)
	}
	for _, j := range dag.Jobs {
		fmt.Println(j.Label())
	}
	// Output:
	// J1:Join(nation,supplier)
	// J2:Join(partsupp,J1)
	// J3:Groupby(J2)
}

// ExampleTPCHQuery loads a canonical query from the built-in catalog — Q14
// is the two-job "QA" query of the paper's motivating experiment.
func ExampleTPCHQuery() {
	q, err := saqp.TPCHQuery("q14")
	if err != nil {
		log.Fatal(err)
	}
	fw, _ := saqp.NewFramework(saqp.Options{})
	dag, err := fw.Compile(q.String())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(dag.Jobs), "jobs")
	// Output:
	// 2 jobs
}
