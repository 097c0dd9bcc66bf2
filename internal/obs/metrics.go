package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// Registry holds the process's counters, gauges and histograms. All
// operations are safe for concurrent use; exposition orders metrics by
// name so two identical runs serialise byte-identically.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// validateName panics on names outside the Prometheus grammar — metric
// names are fixed at build time, so a bad one is a programming error.
// The grammar is all it checks: the saqp_<subsystem>_..., counters-end-
// in-_total convention of the metric table is TestMetricTable's to
// enforce, so ad-hoc registries (tests, tools) may name freely.
func validateName(name string) {
	if name == "" {
		panic(badMetricName(name))
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(badMetricName(name))
		}
	}
}

// badMetricName is validateName's panic value.
type badMetricName string

func (n badMetricName) Error() string { return "obs: invalid metric name " + strconv.Quote(string(n)) }

// Counter is a monotonically non-decreasing value.
type Counter struct {
	mu sync.Mutex
	v  float64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas are ignored (counters are
// monotone by definition).
func (c *Counter) Add(d float64) {
	if d < 0 || d != d {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.v += d
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a value that can go up and down.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.v = v
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram counts observations into fixed cumulative-style buckets with
// upper bounds; observations above the last bound land in the implicit
// +Inf overflow bucket. Negative and NaN observations are rejected (the
// histograms here measure durations and error magnitudes, for which a
// negative value signals an instrumentation bug, not data).
type Histogram struct {
	mu       sync.Mutex
	upper    []float64 // ascending finite upper bounds
	counts   []uint64  // len(upper)+1; last is the +Inf bucket
	sum      float64
	count    uint64
	rejected uint64
}

// DefTimeBuckets spans simulated durations from sub-second dispatch
// overheads to hour-long makespans.
func DefTimeBuckets() []float64 {
	return []float64{0.1, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600, 1800, 3600}
}

// DefErrorBuckets spans relative prediction errors from 1% to 5x.
func DefErrorBuckets() []float64 {
	return []float64{0.01, 0.025, 0.05, 0.1, 0.2, 0.5, 1, 2, 5}
}

func newHistogram(buckets []float64) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not ascending: %v", buckets))
		}
	}
	up := make([]float64, len(buckets))
	copy(up, buckets)
	return &Histogram{upper: up, counts: make([]uint64, len(up)+1)}
}

// Observe records v and reports whether it was accepted; negative and
// NaN observations are rejected and counted separately.
//
//saqp:hotpath
func (h *Histogram) Observe(v float64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if v < 0 || v != v {
		h.rejected++
		return false
	}
	i := sort.SearchFloat64s(h.upper, v) // first bound >= v
	h.counts[i]++
	h.count++
	h.sum += v
	return true
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

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Upper:    append([]float64(nil), h.upper...),
		Counts:   append([]uint64(nil), h.counts...),
		Sum:      h.sum,
		Count:    h.count,
		Rejected: h.rejected,
	}
}

// Counter returns (creating on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	validateName(name)
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	validateName(name)
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns (creating on first use) the named histogram; buckets
// apply only at creation. Nil buckets default to DefTimeBuckets.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	validateName(name)
	if buckets == nil {
		buckets = DefTimeBuckets()
	}
	h := newHistogram(buckets)
	r.hists[name] = h
	return h
}

// sortedKeys returns the map's keys in ascending order.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fnum formats a float the shortest way that round-trips.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus serialises the registry in the Prometheus text
// exposition format (version 0.0.4), metrics sorted by name; # HELP lines
// come from the metric table.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var err error
	write := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	head := func(name, kind string) {
		if spec := metricByName[name]; spec != nil {
			write("# HELP %s %s\n", name, spec.Help)
		}
		write("# TYPE %s %s\n", name, kind)
	}
	for _, name := range sortedKeys(r.counters) {
		head(name, "counter")
		write("%s %s\n", name, fnum(r.counters[name].Value()))
	}
	for _, name := range sortedKeys(r.gauges) {
		head(name, "gauge")
		write("%s %s\n", name, fnum(r.gauges[name].Value()))
	}
	for _, name := range sortedKeys(r.hists) {
		head(name, "histogram")
		s := r.hists[name].Snapshot()
		var cum uint64
		for i, ub := range s.Upper {
			cum += s.Counts[i]
			write("%s_bucket{le=%q} %d\n", name, fnum(ub), cum)
		}
		cum += s.Counts[len(s.Counts)-1]
		write("%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		write("%s_sum %s\n%s_count %d\n", name, fnum(s.Sum), name, s.Count)
	}
	return err
}

// RegistrySnapshot is the JSON form of a registry.
type RegistrySnapshot struct {
	Counters   map[string]float64           `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies every metric's current state.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := RegistrySnapshot{
		Counters:   make(map[string]float64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// SnapshotJSON serialises the registry as deterministic JSON
// (encoding/json sorts map keys).
func (r *Registry) SnapshotJSON() ([]byte, error) {
	return json.MarshalIndent(r.Snapshot(), "", "  ")
}
