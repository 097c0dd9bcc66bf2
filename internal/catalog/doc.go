// Package catalog maintains the offline table statistics that the paper's
// selectivity estimator consumes: row counts, average tuple widths,
// per-column distinct cardinalities, physical clustering flags, and
// equi-width histograms (Section 3.1: "Off-line histograms are built for
// the attributes of the input table ... and stored on HDFS").
//
// Statistics come from two paths that must agree in expectation:
//
//   - Collect scans a materialised relation — ground truth at laptop scale,
//     used by tests to validate the synthetic path;
//   - FromSchema derives statistics analytically from a schema at any scale
//     factor — how 100 GB+ experiments get statistics without 100 GB of RAM.
//
// Collect runs column-parallel on the internal/par pool: each column is
// summarised into its own slot and the slots enter the table's map in
// schema order afterwards. A column is counted through integer codes: an
// int or date column's values, a generated float or string column's domain
// keys (dataset.Relation.Keys), in a slot per code, a bit per code or a map
// sized to the rows, by the codes' range. Only a column without codes (a
// float or string vector built by hand, integers beyond ±2^53) is counted
// in a map of its values. The output does not depend on the schedule, nor
// on map order: a column's statistics are a function of its vector and
// keys alone, and the distinct values that reach a histogram in map or row
// order are only counted per bucket (histogram.BuildDistinct), which no
// order changes. The package is on the determinism analyzer's list for
// that reason.
package catalog
