// Package dataset defines relational schemas and deterministic synthetic
// data generators modelled on the TPC-H and TPC-DS benchmarks used by the
// paper's evaluation (Section 5.1). Real benchmark kits and hundreds of
// gigabytes of data are unavailable in this environment, so the package
// reproduces what the paper's techniques actually consume:
//
//   - per-table row counts as a function of scale factor,
//   - per-column distinct cardinalities, widths and value distributions
//     (uniform, Zipf-skewed, clustered, sequential),
//   - primary-key/foreign-key referential integrity, and
//   - laptop-scale materialised relations — one typed Vector per column —
//     for ground-truth execution in the in-memory MapReduce engine.
//
// Generate runs column-parallel: each column is its own task on the
// internal/par pool, with a typed kernel per kind in place of a Value per
// row. The output stays byte-identical to a serial run because every
// column draws from its own seed (master seed ^ hash of table.column)
// and writes only its own slot of the relation; no state crosses columns,
// so which worker runs a column, and when, cannot reach a value. Every
// value is drawn as an integer domain key first; for float and string
// columns the relation keeps those keys (Relation.Keys), and
// catalog.Collect counts the column through them instead of hashing its
// values.
//
// The package is the one definition of the data's layout. Column.Domain
// says where a column's values lie (its keys, key 0's value and the step
// per key), and the generator, the analytic catalog and the query
// generator read it; FragFactor says how a table's files split into
// blocks, and the estimator and the execution engine read it.
package dataset
