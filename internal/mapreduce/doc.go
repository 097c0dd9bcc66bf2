// Package mapreduce is an in-memory MapReduce engine that actually executes
// compiled query DAGs over materialised relations: map tasks filter and
// project in parallel on internal/par's pool, Groupby jobs run per-map
// combines, the shuffle
// hash-partitions by key, and reduce tasks join, aggregate or sort. Data
// stays in typed column vectors from the scan (which shares the relation's)
// to the result: operators pass row indices, and a join's output is an
// index view over its inputs' vectors, one row index per side, so a column
// is gathered only where a later job reads it or an Extract writes it. A
// job allocates per column, task and reducer, never per row.
//
// In the paper this role is played by the Hadoop cluster itself. The engine
// exists so that selectivity estimates can be validated against *measured*
// intermediate and output sizes (|Med|, |Out|) rather than against the
// estimator's own assumptions, and so examples run real queries end to end.
package mapreduce
