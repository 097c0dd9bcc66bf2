// Package mapreduce is an in-memory MapReduce engine that actually executes
// compiled query DAGs over materialised relations. A job's map phase runs
// in one place, runJob: a map task is one index of its parallel loop over
// an input's splits, filtering that split's rows by the scan predicates
// (a folded MAPJOIN's prelude runs its own before it). The operators start
// from the surviving rows: Groupby jobs run per-map combines, the shuffle
// hash-partitions by key, and reduce tasks join, aggregate or sort. Data
// stays in typed column vectors from the scan (which shares the relation's)
// to the result: operators pass row indices, and a join's output is an
// index view over its inputs' vectors, one row index per side, so a column
// is gathered only where a later job reads it or an Extract writes it. A
// job allocates per column, task and reducer, never per row.
//
// Everything a job builds but its output's data vectors dies with the
// query and is cut from a scratch the engine keeps between queries:
// selections, shuffle buckets, match pairs, composed view indexes,
// gathered input columns, combine vectors and reduce states; offsets,
// bounds and per-task slice headers; resolved inputs, predicates,
// aggregates and join indexes; and the header of every frame (the Frame,
// its column names, vectors and sides). The combine and join tasks' key
// maps and partial states are kept in its per-task slots. Data vectors
// live on the heap — relations' columns and job output data — and the
// sink's header is the one copied off the scratch, by Frame.detached,
// before RunQuery returns. So a warm query allocates only what it
// returns: job stats, output data and the sink's header, the same at any
// task count. Each parallel phase's context is kept in the scratch and
// is the par.Body its tasks run, its Run method one task, so a phase
// allocates nothing to start. The engine keeps a scratch, maps and
// states included, no larger than its registered relations; a bigger
// one is dropped. A join may cut at most 8 bytes of pairs per registered
// byte: one that counts more matches is refused before it cuts them
// (JoinTooLargeError).
//
// In the paper this role is played by the Hadoop cluster itself. The engine
// exists so that selectivity estimates can be validated against *measured*
// intermediate and output sizes (|Med|, |Out|) rather than against the
// estimator's own assumptions, and so examples run real queries end to end.
package mapreduce
