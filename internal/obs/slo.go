package obs

// SLO tracking: per-scheduler latency/error-budget objectives evaluated
// with multi-window burn rates over *virtual* time. The serving engine
// has no shared wall clock — each query runs on its own pool simulator —
// so the tracker's clock is the cumulative simulated seconds of
// completed queries, which makes every burn-rate evaluation and alert
// transition deterministic for a fixed seeded replay.
//
// The evaluation is the standard multi-window multi-burn-rate policy
// (Google SRE workbook): an alert fires only when both a fast window
// (5-minute-equivalent: catches cliffs) and a slow window
// (1-hour-equivalent: rejects blips) burn the error budget faster than
// their thresholds, and resolves when either drops back under.

import (
	"encoding/json"
	"sync"
)

// Default SLO parameters, used for zero fields in SLOConfig.
const (
	// DefSLOLatencySec is the default latency objective: the simulated
	// response-time bound a query must meet to count as good.
	DefSLOLatencySec = 300.0
	// DefSLOTarget is the default objective target (fraction of queries
	// that must be good).
	DefSLOTarget = 0.95
	// DefSLOFastWindowSec is the 5-minute-equivalent fast window.
	DefSLOFastWindowSec = 300.0
	// DefSLOSlowWindowSec is the 1-hour-equivalent slow window.
	DefSLOSlowWindowSec = 3600.0
	// DefSLOFastBurn is the fast-window burn-rate alert threshold.
	DefSLOFastBurn = 14.4
	// DefSLOSlowBurn is the slow-window burn-rate alert threshold.
	DefSLOSlowBurn = 6.0
)

// SLOConfig parameterises one latency objective. The zero value of any
// field selects its Def* default; Name labels the objective (typically
// the scheduler under test).
type SLOConfig struct {
	Name string `json:"name"`
	// LatencyObjectiveSec bounds a good query's simulated response time.
	LatencyObjectiveSec float64 `json:"latency_objective_sec"`
	// Target is the fraction of queries that must meet the objective.
	Target float64 `json:"target"`
	// FastWindowSec and SlowWindowSec are the burn-rate evaluation
	// windows in virtual seconds.
	FastWindowSec float64 `json:"fast_window_sec"`
	SlowWindowSec float64 `json:"slow_window_sec"`
	// FastBurnThreshold and SlowBurnThreshold gate the alert: both must
	// be exceeded to fire.
	FastBurnThreshold float64 `json:"fast_burn_threshold"`
	SlowBurnThreshold float64 `json:"slow_burn_threshold"`
}

// withDefaults fills zero fields with the Def* defaults.
func (c SLOConfig) withDefaults() SLOConfig {
	if c.LatencyObjectiveSec <= 0 {
		c.LatencyObjectiveSec = DefSLOLatencySec
	}
	if c.Target <= 0 || c.Target >= 1 {
		c.Target = DefSLOTarget
	}
	if c.FastWindowSec <= 0 {
		c.FastWindowSec = DefSLOFastWindowSec
	}
	if c.SlowWindowSec <= 0 {
		c.SlowWindowSec = DefSLOSlowWindowSec
	}
	if c.SlowWindowSec < c.FastWindowSec {
		c.SlowWindowSec = c.FastWindowSec
	}
	if c.FastBurnThreshold <= 0 {
		c.FastBurnThreshold = DefSLOFastBurn
	}
	if c.SlowBurnThreshold <= 0 {
		c.SlowBurnThreshold = DefSLOSlowBurn
	}
	return c
}

// SLOState is one Record evaluation's outcome.
type SLOState struct {
	// FastBurn and SlowBurn are the windowed burn rates after the sample.
	FastBurn float64
	SlowBurn float64
	// Firing reports the alert state after the sample; Transition marks
	// that this sample flipped it (fire or resolve).
	Firing     bool
	Transition bool
	// Bad reports how the sample was classified.
	Bad bool
}

// SLOAlert is one deterministic alert-log entry.
type SLOAlert struct {
	// AtVirtualSec is the tracker's virtual clock at the transition.
	AtVirtualSec float64 `json:"at_virtual_sec"`
	// State is "fire" or "resolve".
	State string `json:"state"`
	// FastBurn and SlowBurn are the burn rates at the transition.
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
}

// SLOStatus is a point-in-time summary for engine stats.
type SLOStatus struct {
	FastBurn float64
	SlowBurn float64
	Firing   bool
	Alerts   int
	Good     uint64
	Bad      uint64
}

// SLOSnapshot is the JSON form of a tracker.
type SLOSnapshot struct {
	Config        SLOConfig  `json:"config"`
	VirtualSec    float64    `json:"virtual_sec"`
	Good          uint64     `json:"good"`
	Bad           uint64     `json:"bad"`
	WindowSamples int        `json:"window_samples"`
	FastBurn      float64    `json:"fast_burn"`
	SlowBurn      float64    `json:"slow_burn"`
	Firing        bool       `json:"firing"`
	Alerts        []SLOAlert `json:"alerts"`
	AlertsDropped uint64     `json:"alerts_dropped"`
}

// maxSLOAlerts bounds the alert log; a healthy objective transitions
// rarely, so hitting the cap signals flapping worth investigating —
// further transitions are counted, not stored.
const maxSLOAlerts = 1024

// sloSample is one classified completion on the virtual timeline.
type sloSample struct {
	t   float64
	bad bool
}

// SLOTracker evaluates one latency objective over a virtual-time sample
// stream. Safe for concurrent use.
type SLOTracker struct {
	mu      sync.Mutex
	cfg     SLOConfig
	now     float64     // virtual clock: cumulative recorded seconds
	samples []sloSample // ascending t, pruned beyond the slow window
	good    uint64
	bad     uint64
	fast    float64
	slow    float64
	firing  bool
	alerts  []SLOAlert
	dropped uint64
}

// NewSLOTracker builds a tracker, filling zero config fields with
// defaults.
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	return &SLOTracker{cfg: cfg.withDefaults()}
}

// Config returns the tracker's effective (default-filled) configuration.
func (s *SLOTracker) Config() SLOConfig {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg
}

// Record classifies one completed query — bad when it failed or its
// latency exceeds the objective — advances the virtual clock by
// latencySec, re-evaluates both burn windows, and returns the resulting
// state (including whether the alert transitioned).
func (s *SLOTracker) Record(latencySec float64, failed bool) SLOState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if latencySec < 0 || latencySec != latencySec {
		latencySec = 0
	}
	s.now += latencySec
	isBad := failed || latencySec > s.cfg.LatencyObjectiveSec
	if isBad {
		s.bad++
	} else {
		s.good++
	}
	s.samples = append(s.samples, sloSample{t: s.now, bad: isBad})
	// Prune anything older than the slow window.
	cut := s.now - s.cfg.SlowWindowSec
	drop := 0
	for drop < len(s.samples) && s.samples[drop].t < cut {
		drop++
	}
	if drop > 0 {
		s.samples = append(s.samples[:0], s.samples[drop:]...)
	}
	s.fast = s.burnLocked(s.cfg.FastWindowSec)
	s.slow = s.burnLocked(s.cfg.SlowWindowSec)
	shouldFire := s.fast >= s.cfg.FastBurnThreshold && s.slow >= s.cfg.SlowBurnThreshold
	transition := shouldFire != s.firing
	if transition {
		s.firing = shouldFire
		state := "resolve"
		if shouldFire {
			state = "fire"
		}
		if len(s.alerts) < maxSLOAlerts {
			s.alerts = append(s.alerts, SLOAlert{
				AtVirtualSec: s.now, State: state, FastBurn: s.fast, SlowBurn: s.slow,
			})
		} else {
			s.dropped++
		}
	}
	return SLOState{FastBurn: s.fast, SlowBurn: s.slow, Firing: s.firing,
		Transition: transition, Bad: isBad}
}

// burnLocked computes the burn rate over the trailing window: the bad
// fraction of in-window samples divided by the error budget (1-target).
// No samples means no burn.
func (s *SLOTracker) burnLocked(windowSec float64) float64 {
	cut := s.now - windowSec
	total, bad := 0, 0
	for i := len(s.samples) - 1; i >= 0; i-- {
		if s.samples[i].t < cut {
			break
		}
		total++
		if s.samples[i].bad {
			bad++
		}
	}
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / (1 - s.cfg.Target)
}

// Status summarises the tracker for engine stats.
func (s *SLOTracker) Status() SLOStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SLOStatus{FastBurn: s.fast, SlowBurn: s.slow, Firing: s.firing,
		Alerts: len(s.alerts) + int(s.dropped), Good: s.good, Bad: s.bad}
}

// Alerts returns a copy of the deterministic alert log.
func (s *SLOTracker) Alerts() []SLOAlert {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]SLOAlert(nil), s.alerts...)
}

// Snapshot copies the tracker state.
func (s *SLOTracker) Snapshot() SLOSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SLOSnapshot{
		Config: s.cfg, VirtualSec: s.now, Good: s.good, Bad: s.bad,
		WindowSamples: len(s.samples), FastBurn: s.fast, SlowBurn: s.slow,
		Firing: s.firing, Alerts: append([]SLOAlert{}, s.alerts...),
		AlertsDropped: s.dropped,
	}
}

// SnapshotJSON serialises the tracker as deterministic indented JSON.
func (s *SLOTracker) SnapshotJSON() ([]byte, error) {
	return json.MarshalIndent(s.Snapshot(), "", "  ")
}

// SLORecorded publishes one SLO evaluation to the metrics registry:
// good/bad counters, the burn-rate and firing gauges, and the alert
// transition counter.
func (o *Observer) SLORecorded(st SLOState) {
	if o == nil || o.Metrics == nil {
		return
	}
	if st.Bad {
		o.Count(MSLOBadTotal)
	} else {
		o.Count(MSLOGoodTotal)
	}
	o.Metrics.Gauge(MSLOFastBurn).Set(st.FastBurn)
	o.Metrics.Gauge(MSLOSlowBurn).Set(st.SlowBurn)
	firing := 0
	if st.Firing {
		firing = 1
	}
	o.set(MSLOFiring, firing)
	if st.Transition {
		o.Count(MSLOTransitions)
	}
}
