package fault

import "saqp/internal/sim"

// Spec configures a fault plan. The zero value injects no faults; only the
// recovery knobs (attempt cap, backoff, blacklist threshold) are defaulted,
// so a zero Spec still yields a usable Plan whose schedule is identical to
// a fault-free run.
type Spec struct {
	// Seed drives the plan's PRNG and the per-task failure hash.
	Seed uint64
	// Nodes is how many nodes the plan covers; windows generated for nodes
	// beyond the simulated cluster are ignored by the simulator.
	Nodes int
	// HorizonSec is the sim-time span over which crash and slowdown windows
	// are placed (default 3600).
	HorizonSec float64

	// CrashProb is the probability that a given node crashes once during
	// the horizon, staying down for CrashDowntimeSec (default 120) before
	// rejoining with all slots free. Crash-killed attempts are re-queued
	// immediately and do not count against the attempt cap (Hadoop marks
	// them KILLED, not FAILED).
	CrashProb        float64
	CrashDowntimeSec float64

	// SlowProb is the probability that a given node degrades once during
	// the horizon: for SlowDurationSec (default 300) tasks dispatched to it
	// run at SlowFactor (default 0.25) of the node's nominal speed — the
	// straggler behaviour of a degraded tasktracker.
	SlowProb        float64
	SlowFactor      float64
	SlowDurationSec float64

	// TaskFailProb is the probability that any given task attempt fails
	// partway through (mapred task FAILED). The failing attempt burns the
	// slot for a deterministic fraction of its duration, then the task
	// backs off and retries, up to MaxAttempts (default 4, as
	// mapred.map.max.attempts) before its whole query is failed.
	TaskFailProb float64
	MaxAttempts  int

	// BlacklistAfter is how many transient failures a node hosts before it
	// is excluded from scheduling for the rest of the run (default 3, as
	// mapred.max.tracker.failures).
	BlacklistAfter int

	// BackoffBaseSec is the first retry delay in sim seconds (default 10);
	// it doubles per consecutive failure of the same task, capped at
	// BackoffCapSec (default 80).
	BackoffBaseSec float64
	BackoffCapSec  float64
}

// normalize fills structural defaults without turning on any fault class.
func (s Spec) normalize() Spec {
	if s.Nodes <= 0 {
		s.Nodes = 9
	}
	if s.HorizonSec <= 0 {
		s.HorizonSec = 3600
	}
	if s.CrashDowntimeSec <= 0 {
		s.CrashDowntimeSec = 120
	}
	if s.SlowFactor <= 0 || s.SlowFactor > 1 {
		s.SlowFactor = 0.25
	}
	if s.SlowDurationSec <= 0 {
		s.SlowDurationSec = 300
	}
	if s.MaxAttempts <= 0 {
		s.MaxAttempts = 4
	}
	if s.BlacklistAfter <= 0 {
		s.BlacklistAfter = 3
	}
	if s.BackoffBaseSec <= 0 {
		s.BackoffBaseSec = 10
	}
	if s.BackoffCapSec <= 0 {
		s.BackoffCapSec = 80
	}
	return s
}

// DefaultSpec is the plan CI replays TPC-H under: a moderate mix of every
// fault class, tuned so retries and blacklisting recover every query
// (completion rate 100%, gated by TestFaultReplayDefaultPlanCompletes).
func DefaultSpec(seed uint64) Spec {
	return Spec{
		Seed:         seed,
		Nodes:        9,
		HorizonSec:   3600,
		CrashProb:    0.2,
		SlowProb:     0.3,
		TaskFailProb: 0.02,
	}
}

// Window is one timed per-node fault: a crash outage (Factor 0) or a
// slowdown (Factor in (0,1), multiplying the node's speed).
type Window struct {
	Node       int
	Start, End float64
	Factor     float64
}

// Plan is a fully-expanded fault schedule. All randomness is consumed at
// construction; every accessor is a pure function of the stored state, and
// every accessor is safe on a nil receiver (returning "no fault").
type Plan struct {
	spec    Spec
	crashes []Window
	slows   []Window
}

// NewPlan expands spec into a concrete plan using a sim.RNG seeded with
// spec.Seed. The same spec always yields the same plan.
func NewPlan(spec Spec) *Plan {
	spec = spec.normalize()
	p := &Plan{spec: spec}
	rng := sim.New(spec.Seed)
	crashRNG, slowRNG := rng.Fork(), rng.Fork()
	for n := 0; n < spec.Nodes; n++ {
		if crashRNG.Float64() < spec.CrashProb {
			at := crashRNG.Range(0, spec.HorizonSec)
			p.crashes = append(p.crashes, Window{
				Node: n, Start: at, End: at + spec.CrashDowntimeSec,
			})
		}
	}
	for n := 0; n < spec.Nodes; n++ {
		if slowRNG.Float64() < spec.SlowProb {
			at := slowRNG.Range(0, spec.HorizonSec)
			p.slows = append(p.slows, Window{
				Node: n, Start: at, End: at + spec.SlowDurationSec,
				Factor: spec.SlowFactor,
			})
		}
	}
	return p
}

// Spec returns the normalized spec the plan was built from.
func (p *Plan) Spec() Spec {
	if p == nil {
		return Spec{}
	}
	return p.spec
}

// Crashes returns the node outage windows, in node order. The slice is the
// plan's own, which a simulator books on every reset without copying:
// callers must not write to it.
func (p *Plan) Crashes() []Window {
	if p == nil {
		return nil
	}
	return p.crashes[:len(p.crashes):len(p.crashes)]
}

// Slowdowns returns the node slowdown windows, in node order.
func (p *Plan) Slowdowns() []Window {
	if p == nil {
		return nil
	}
	return append([]Window(nil), p.slows...)
}

// SlowFactor returns the speed multiplier for tasks dispatched to node at
// sim time at: 1 outside any slowdown window. The simulator asks once
// per dispatched task.
//
//saqp:hotpath
func (p *Plan) SlowFactor(node int, at float64) float64 {
	if p == nil {
		return 1
	}
	for _, w := range p.slows {
		if w.Node == node && at >= w.Start && at < w.End {
			return w.Factor
		}
	}
	return 1
}

// MaxAttempts returns the per-task attempt cap.
func (p *Plan) MaxAttempts() int {
	if p == nil {
		return 0
	}
	return p.spec.MaxAttempts
}

// BlacklistAfter returns the per-node transient-failure threshold.
func (p *Plan) BlacklistAfter() int {
	if p == nil {
		return 0
	}
	return p.spec.BlacklistAfter
}

// Backoff returns the retry delay after a task's n-th consecutive failure
// (n >= 1): base * 2^(n-1), capped.
func (p *Plan) Backoff(n int) float64 {
	if p == nil {
		return 0
	}
	b := p.spec.BackoffBaseSec
	for i := 1; i < n; i++ {
		b *= 2
		if b >= p.spec.BackoffCapSec {
			return p.spec.BackoffCapSec
		}
	}
	if b > p.spec.BackoffCapSec {
		return p.spec.BackoffCapSec
	}
	return b
}

// TaskFailure decides whether the attempt-th run (1-based) of the task
// identified by (job, reduce, index) fails, and if so at which fraction of
// its duration (in [0.1, 0.9)) the slot is lost. The decision is a pure
// hash of the identity — independent of dispatch order or cluster state —
// so re-executions of *other* tasks cannot perturb it. The simulator asks
// once per dispatched task.
//
//saqp:hotpath
func (p *Plan) TaskFailure(job string, reduce bool, index, attempt int) (fail bool, frac float64) {
	if p == nil || p.spec.TaskFailProb <= 0 {
		return false, 0
	}
	h := uint64(14695981039346656037) // FNV-64a offset basis
	for i := 0; i < len(job); i++ {
		h = (h ^ uint64(job[i])) * 1099511628211
	}
	h = mix64(h ^ p.spec.Seed)
	h = mix64(h)
	phase := uint64(0)
	if reduce {
		phase = 1
	}
	h = mix64(h ^ phase<<32 ^ uint64(index))
	h = mix64(h ^ uint64(attempt))
	if float64(h>>11)/(1<<53) >= p.spec.TaskFailProb {
		return false, 0
	}
	return true, 0.1 + 0.8*float64(mix64(h)>>11)/(1<<53)
}

// mix64 is the SplitMix64 output finalizer used as a stateless bit mixer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
