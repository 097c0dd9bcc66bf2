// Package obs is the reproduction's deterministic observability layer.
// An observable occurrence is one Event; the kinds table (event.go) says
// which metric it moves, what it carries, and how the Chrome timeline
// and the request span tree render it, and Observer.Emit hands it to
// every attached sink. Every metric is one row of the metric table
// (metrictable.go). Beside the event path sits a prediction-drift
// recorder — the live equivalent of the paper's Tables 3–5.
// docs/OBSERVABILITY.md lists every kind and every metric.
//
// The layer is deterministic by construction: every timestamp comes from
// the cluster simulator's virtual clock (float64 seconds carried by each
// event), never the wall clock, and every serialisation orders keys, so
// a fixed workload and seed produce byte-identical traces, metrics and
// drift snapshots across runs. The package imports only the standard
// library and internal/sim (the trace id's FNV-1a; itself a leaf), so
// cluster, sched, serve and the facade instrument through it without cycles.
//
// A nil *Observer is valid everywhere: every method on the pointer
// receiver returns immediately and attribute constructors keep values
// unrendered, so uninstrumented hot paths allocate nothing.
package obs
