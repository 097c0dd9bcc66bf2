package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// Registry is the storage of the metric table: one cell per row, written
// by Observer.Count, Set and Observe under one mutex. Exports list only
// the rows written so far, in name order, so two identical runs
// serialise byte-identically.
type Registry struct {
	mu    sync.Mutex
	cells []cell // cells[id-1] is metric id's
}

// cell is one row's state.
type cell struct {
	written bool
	v       float64 // a counter's count or a gauge's value
	h       hist    // a histogram's buckets
}

// NewRegistry returns a registry with no row written.
func NewRegistry() *Registry {
	r := &Registry{cells: make([]cell, len(metricTable))}
	for i, m := range metricTable {
		if m.Kind == "histogram" {
			r.cells[i].h = newHist(timeBuckets)
		}
	}
	return r
}

// Count adds one to counter c — the whole report of an occurrence that
// moves one counter and carries no value.
//
//saqp:hotpath
func (o *Observer) Count(c CounterID) {
	if o == nil || o.Metrics == nil {
		return
	}
	r := o.Metrics
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cells[c-1].written = true
	r.cells[c-1].v++
}

// Set replaces gauge g's value.
//
//saqp:hotpath
func (o *Observer) Set(g GaugeID, v float64) {
	if o == nil || o.Metrics == nil {
		return
	}
	r := o.Metrics
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cells[g-1].written = true
	r.cells[g-1].v = v
}

// Observe records v on histogram h; negative and NaN values are counted
// as rejected.
//
//saqp:hotpath
func (o *Observer) Observe(h HistogramID, v float64) {
	if o == nil || o.Metrics == nil {
		return
	}
	r := o.Metrics
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cells[h-1].written = true
	r.cells[h-1].h.observe(v)
}

// hist counts observations into fixed buckets with ascending upper
// bounds; observations above the last bound land in the implicit +Inf
// overflow bucket. Negative and NaN observations are rejected (the
// histograms here measure durations and error magnitudes, for which a
// negative value signals an instrumentation bug, not data). Its owner's
// mutex guards it.
type hist struct {
	upper    []float64 // ascending finite upper bounds, shared and never written
	counts   []uint64  // len(upper)+1; last is the +Inf bucket
	sum      float64
	count    uint64
	rejected uint64
}

// timeBuckets spans simulated durations from sub-second dispatch
// overheads to hour-long makespans.
var timeBuckets = []float64{0.1, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600, 1800, 3600}

// errorBuckets spans relative prediction errors from 1% to 5x.
var errorBuckets = []float64{0.01, 0.025, 0.05, 0.1, 0.2, 0.5, 1, 2, 5}

func newHist(upper []float64) hist { return hist{upper: upper, counts: make([]uint64, len(upper)+1)} }

// observe records v, or counts it as rejected.
//
//saqp:hotpath
func (h *hist) observe(v float64) {
	if v < 0 || v != v {
		h.rejected++
		return
	}
	h.counts[sort.SearchFloat64s(h.upper, v)]++ // first bound >= v
	h.count++
	h.sum += v
}

// HistogramSnapshot is an immutable copy of a histogram's state. Bucket
// counts are per-bucket (not cumulative); Prometheus exposition
// accumulates them.
type HistogramSnapshot struct {
	Upper    []float64 `json:"upper_bounds"`
	Counts   []uint64  `json:"counts"`
	Sum      float64   `json:"sum"`
	Count    uint64    `json:"count"`
	Rejected uint64    `json:"rejected"`
}

func (h *hist) snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Upper:    append([]float64(nil), h.upper...),
		Counts:   append([]uint64(nil), h.counts...),
		Sum:      h.sum,
		Count:    h.count,
		Rejected: h.rejected,
	}
}

// fnum formats a float the shortest way that round-trips.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus serialises the written rows in the Prometheus text
// exposition format (version 0.0.4): counters, then gauges, then
// histograms, each in name order, with # HELP from the metric table.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var err error
	write := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, i := range exportOrder {
		m, c := &metricTable[i], &r.cells[i]
		if !c.written {
			continue
		}
		write("# HELP %s %s\n# TYPE %s %s\n", m.Name, m.Help, m.Name, m.Kind)
		if m.Kind != "histogram" {
			write("%s %s\n", m.Name, fnum(c.v))
			continue
		}
		var cum uint64
		for b, ub := range c.h.upper {
			cum += c.h.counts[b]
			write("%s_bucket{le=%q} %d\n", m.Name, fnum(ub), cum)
		}
		cum += c.h.counts[len(c.h.upper)]
		write("%s_bucket{le=\"+Inf\"} %d\n", m.Name, cum)
		write("%s_sum %s\n%s_count %d\n", m.Name, fnum(c.h.sum), m.Name, c.h.count)
	}
	return err
}

// RegistrySnapshot is the JSON form of a registry.
type RegistrySnapshot struct {
	Counters   map[string]float64           `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies every written row's current state.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := RegistrySnapshot{
		Counters:   map[string]float64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for i, m := range metricTable {
		c := &r.cells[i]
		if !c.written {
			continue
		}
		switch m.Kind {
		case "counter":
			s.Counters[m.Name] = c.v
		case "gauge":
			s.Gauges[m.Name] = c.v
		default:
			s.Histograms[m.Name] = c.h.snapshot()
		}
	}
	return s
}

// SnapshotJSON serialises the registry as deterministic JSON
// (encoding/json sorts map keys).
func (r *Registry) SnapshotJSON() ([]byte, error) {
	return json.MarshalIndent(r.Snapshot(), "", "  ")
}
