package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// runConfig is one benchmark run's input.
type runConfig struct {
	workload string
	why      string // the workload's one-line reason, copied into the result
	seed     uint64
	// seconds is what the run was asked to measure for; setups and rounds
	// derive from it (workloadSpec.workFor) and the run does that fixed
	// work however long it takes.
	seconds float64
	// setups is how many times set-up is repeated for setup_s, and rounds
	// the number of timed rounds.
	setups, rounds int
	// began is when the run started, for roundLoop's overrun guard.
	began time.Time
	// opsDiv, when above 1, divides the serving workloads' ops per round
	// (the smoke run).
	opsDiv int
	trace  bool
}

const (
	// warmupRounds whole rounds run before timing, so caches fill, the
	// heap reaches its steady size and lazy set-up ends. They draw the
	// first warmupRounds rounds' worth of the op sequence, so timed round i
	// always starts at the same op.
	warmupRounds = 2
	// countRounds is how many timed rounds the counts cover, and the
	// fewest a run makes (see roundLoop).
	countRounds = 16
	// minSetups is the fewest set-ups a run repeats, however short.
	minSetups = 3
	// overrunFactor × -seconds after a run began it stops starting timed
	// rounds. A run takes about 1.2 × -seconds on the reference machine;
	// the guard only keeps a run through a phase in which the hypervisor
	// withholds most of the CPU from taking minutes.
	overrunFactor = 3
	// controlShare: on a traced run the first quarter of the timed rounds
	// (rounded up) run before anything of the tracer exists — its span
	// buffers raise the live heap, and with it the collector's pace, for
	// every later round. Those control rounds give a traced run every
	// figure that does not need spans, and bench.trace_overhead its base.
	controlShare = 4
	// clients is the closed-loop client count (goroutines, and
	// connections on net_mixed): one per vCPU of the reference machine.
	clients = 2
	// loadedWindow is the tickets each client keeps outstanding in the
	// loaded segment; the unloaded segment uses a window of 1.
	loadedWindow = 16
)

// metric is one reported figure. Value is the headline (for timings the
// median over rounds, in calibrated units); the rest documents it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Q1 and Q3 are the quartiles over N per-round (or per-span) values.
	Q1 float64 `json:"q1,omitempty"`
	Q3 float64 `json:"q3,omitempty"`
	N  int     `json:"n,omitempty"`
	// Raw is the same figure before calibration.
	Raw float64 `json:"raw,omitempty"`
	// Note states what the figure is when the name alone does not.
	Note string `json:"note,omitempty"`
}

// result is one run's output, written to timed_<workload>.json or
// layers_<workload>.json and summarised on the last line of stdout.
type result struct {
	Workload   string   `json:"workload"`
	Why        string   `json:"why"`
	Seed       uint64   `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      bool     `json:"trace"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Clients    int      `json:"clients"`
	Rounds     int      `json:"rounds"`
	Correct    bool     `json:"correct"`
	Attempted  int64    `json:"attempted"`
	Failed     int64    `json:"failed"`
	Checks     []string `json:"check_failures,omitempty"`
	// RefCPUPerOpNs is the reference's median CPU time per op over the run
	// (refNominalNs on a quiet machine) and StealShare the share of the CPU
	// time the loaded segments asked for that the hypervisor kept from
	// them, so a slow machine phase is distinguishable from a slow program.
	RefCPUPerOpNs float64           `json:"ref_cpu_per_op_ns"`
	StealShare    float64           `json:"steal_share"`
	Metrics       map[string]metric `json:"metrics"`
	// RoundsRaw and SetupsRaw list every timed round and every set-up as
	// measured, before calibration.
	RoundsRaw []roundRaw `json:"rounds_raw"`
	SetupsRaw []setupRaw `json:"setups_raw"`

	spans []span
}

// newResult starts a result for cfg.
func newResult(cfg runConfig) *result {
	return &result{
		Workload: cfg.workload, Why: cfg.why, Seed: cfg.seed, Seconds: cfg.seconds,
		Trace: cfg.trace, GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: clients,
		Correct: true, Metrics: make(map[string]metric),
	}
}

// check records a failed correctness check.
func (r *result) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	r.Correct = false
	if len(r.Checks) < 20 {
		r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
	}
}

// set stores a plain (uncalibrated, single-valued) metric.
func (r *result) set(name string, v float64) {
	r.Metrics[name] = metric{Value: v}
}

// untouchedNote marks a per-layer metric the workload never set.
const untouchedNote = "layer not exercised by this workload"

// finish gives every metric its unit from spec.go's tables — the one
// place units are declared — and reports 0 for every per-layer metric
// the workload did not set: the layer is not on its path.
func (r *result) finish() {
	for _, m := range slices.Concat(endToEnd, perLayer) {
		got, ok := r.Metrics[m.name]
		if !ok {
			got.Note = untouchedNote
		}
		got.Unit = m.unit
		r.Metrics[m.name] = got
	}
}

// roundRaw is what one timed round measured, before calibration. The
// result file lists every round, so a disturbed stretch of a run can be
// told from a slow program.
type roundRaw struct {
	// Ref is the reference run just before the round.
	Ref refTimes `json:"ref"`
	// Loaded is the loaded segment of LoadedOps ops and Unloaded the
	// unloaded segment; on batch_tpch Loaded is the whole pass.
	Loaded    window `json:"loaded"`
	LoadedOps int    `json:"loaded_ops"`
	Unloaded  window `json:"unloaded"`
	// P50Ns is the unloaded segment's median latency; TailNs the loaded
	// segment's p99 (batch_tpch: median and slowest DAG of the pass).
	P50Ns  float64 `json:"p50_ns"`
	TailNs float64 `json:"tail_ns"`
	// Traced is false for the in-run control rounds of a traced run.
	Traced bool `json:"traced"`
}

// roundSet is a run's timed rounds and the reference runs between them,
// from which every round's calibration scales derive.
type roundSet struct {
	rounds []roundRaw
	refs   []refTimes // one per round, plus one after the last round
	// peakRSSMB is the resident-set high-water mark (VmHWM) over warm-up
	// and the timed rounds with tracing off.
	peakRSSMB float64
}

// scale returns round i's calibration factor.
func (rs *roundSet) scale(i int) float64 {
	return calibScale(windowCalib(rs.refs, i))
}

// roundFigure computes one per-round figure of a metric from a round with
// its durations multiplied by k; k is 1 for the figure as measured.
type roundFigure func(r roundRaw, k float64) float64

func opsPerSec(r roundRaw, k float64) float64 {
	return float64(r.LoadedOps) / (float64(r.Loaded.Ns) * k / 1e9)
}
func p50Micros(r roundRaw, k float64) float64  { return r.P50Ns * k / 1e3 }
func tailMicros(r roundRaw, k float64) float64 { return r.TailNs * k / 1e3 }
func cpuMicros(r roundRaw, k float64) float64 {
	return float64(r.Loaded.CPUNs) * k / 1e3 / float64(r.LoadedOps)
}

// perRound returns fig for every round keep accepts, calibrated by the
// round's scale, or as measured when raw is set.
func (rs *roundSet) perRound(raw bool, keep func(roundRaw) bool, fig roundFigure) []float64 {
	var out []float64
	for i, r := range rs.rounds {
		if !keep(r) {
			continue
		}
		k := 1.0
		if !raw {
			k = rs.scale(i)
		}
		out = append(out, fig(r, k))
	}
	return out
}

// timing builds a metric from fig over the kept rounds: median, quartiles
// and count of the calibrated values, and the uncalibrated median.
func (rs *roundSet) timing(note string, keep func(roundRaw) bool, fig roundFigure) metric {
	cal := rs.perRound(false, keep, fig)
	q1, med, q3 := quartiles(cal)
	return metric{Value: med, Q1: q1, Q3: q3, N: len(cal),
		Raw: median(rs.perRound(true, keep, fig)), Note: note}
}

// timeMetrics fills the four per-round timings, peak_rss_mb and the
// bench.* calibration figures. The timings come from rounds with tracing
// off — on a traced run its control rounds — and bench.trace_overhead
// compares those with the traced rounds.
func (rs *roundSet) timeMetrics(res *result, p50Note, tailNote string) {
	keep := func(r roundRaw) bool { return !r.Traced }
	res.Metrics["throughput_ops_s"] = rs.timing("loaded-segment ops ÷ calibrated seconds, median over rounds", keep, opsPerSec)
	res.Metrics["latency_p50_us"] = rs.timing(p50Note, keep, p50Micros)
	res.Metrics["latency_tail_us"] = rs.timing(tailNote, keep, tailMicros)
	res.Metrics["cpu_us_per_op"] = rs.timing("process user+sys CPU over the loaded segment ÷ ops, median over rounds", keep, cpuMicros)
	res.Metrics["peak_rss_mb"] = metric{Value: rs.peakRSSMB,
		Note: "resident-set high-water mark (VmHWM) over warm-up and the untraced timed rounds; restarted after the repeated set-ups"}

	res.Rounds, res.RoundsRaw = len(rs.rounds), rs.rounds
	refCPU, refWall := make([]float64, len(rs.refs)), make([]float64, len(rs.refs))
	for i, t := range rs.refs {
		refCPU[i], refWall[i] = t.cpuPerOpNs(), float64(t.Loaded.Ns)
	}
	res.RefCPUPerOpNs = median(refCPU)
	var stolen, asked int64
	for _, r := range rs.rounds {
		stolen += r.Loaded.StealNs
		asked += r.Loaded.StealNs + r.Loaded.CPUNs
	}
	if asked > 0 {
		res.StealShare = float64(stolen) / float64(asked)
	}
	res.Metrics["bench.calib_us"] = metric{Value: median(refWall) / 1e3,
		Note: "one reference run, wall time, median over the run"}
	res.Metrics["bench.calib_spread"] = metric{Value: iqrSpread(refCPU),
		Note: "quartile spread ÷ median of the reference's CPU time per op over the run"}
	thr := rs.perRound(false, keep, opsPerSec)
	res.set("bench.round_spread", iqrSpread(thr))
	overhead := 0.0
	if traced := rs.perRound(false, func(r roundRaw) bool { return r.Traced }, opsPerSec); len(traced) > 0 {
		overhead = median(thr) / median(traced)
	}
	res.Metrics["bench.trace_overhead"] = metric{Value: overhead,
		Note: "untraced control rounds' throughput ÷ traced rounds' throughput"}
}

// roundLoop runs warmupRounds warm-up rounds (indices −warmupRounds … −1,
// untraced), calls reset, then runs cfg.rounds timed rounds — reference,
// then round(i, traced) — and the reference once more. The work is
// fixed; only when a run has already taken overrunFactor × cfg.seconds
// does it stop starting rounds, and never before round countRounds, after
// which every count has been read.
func roundLoop(cfg runConfig, ref *refProcess, round func(i int, traced bool) roundRaw, reset func()) (*roundSet, error) {
	// Return what the repeated set-ups freed and restart the high-water
	// mark, so that peak_rss_mb is the rounds' own.
	debug.FreeOSMemory()
	restartPeakRSS()
	for i := -warmupRounds; i < 0; i++ {
		if _, err := ref.run(); err != nil {
			return nil, err
		}
		round(i, false)
	}
	reset()
	rs := &roundSet{}
	limit := time.Duration(overrunFactor * cfg.seconds * float64(time.Second))
	for i := 0; i < cfg.rounds; i++ {
		if i >= countRounds && time.Since(cfg.began) > limit {
			break
		}
		t, err := ref.run()
		if err != nil {
			return nil, err
		}
		r := round(i, i >= cfg.controlRounds())
		r.Ref = t
		rs.rounds = append(rs.rounds, r)
		rs.refs = append(rs.refs, t)
		if i == cfg.controlRounds()-1 {
			rs.peakRSSMB = peakRSSMB()
		}
	}
	t, err := ref.run()
	if err != nil {
		return nil, err
	}
	rs.refs = append(rs.refs, t)
	return rs, nil
}

// controlRounds is how many of the timed rounds run with tracing off:
// all of an untraced run, the first quarter (rounded up) of a traced one.
func (cfg runConfig) controlRounds() int {
	if cfg.trace {
		return (cfg.rounds + controlShare - 1) / controlShare
	}
	return cfg.rounds
}

// countedRounds is how many timed rounds the run's counts cover:
// allocations, est_err, cache, learner and go.* figures are read after
// round countedRounds−1 however many rounds follow, so they repeat for a
// seed whatever the machine's speed — and on a traced run before the
// tracer exists.
func (cfg runConfig) countedRounds() int { return min(countRounds, cfg.controlRounds()) }

// setupRaw is one repetition of set-up as measured: the reference run
// before it, the window around it, and its named phases' durations
// ("total" is the whole set-up).
type setupRaw struct {
	Ref      refTimes         `json:"ref"`
	Window   window           `json:"window"`
	PhasesNs map[string]int64 `json:"phases_ns"`
}

// setupSeries is a run's repeated set-ups and the reference runs between
// them (one more than set-ups), so a set-up is calibrated like a round:
// by the median reference over the repetitions around it.
type setupSeries struct {
	reps []setupRaw
	refs []refTimes
}

// measureSetups calls setup n times, a reference run before each and one
// after the last. setup times its own phases, so what it does first to
// drop the previous repetition's environment is not measured.
func measureSetups(n int, ref *refProcess, setup func() (map[string]time.Duration, window, error)) (*setupSeries, error) {
	s := &setupSeries{}
	for i := 0; i <= n; i++ {
		t, err := ref.run()
		if err != nil {
			return nil, err
		}
		s.refs = append(s.refs, t)
		if i == n {
			break
		}
		phases, win, err := setup()
		if err != nil {
			return nil, err
		}
		rep := setupRaw{Ref: t, Window: win, PhasesNs: make(map[string]int64)}
		for name, d := range phases {
			rep.PhasesNs[name] = d.Nanoseconds()
		}
		s.reps = append(s.reps, rep)
	}
	return s, nil
}

// metric reports one phase's median over the repetitions, calibrated, in
// seconds times perSecond (1e6 for a metric in microseconds).
func (s *setupSeries) metric(phase string, perSecond float64, note string) metric {
	cal, raw := make([]float64, len(s.reps)), make([]float64, len(s.reps))
	for i, rep := range s.reps {
		raw[i] = float64(rep.PhasesNs[phase]) / 1e9 * perSecond
		cal[i] = raw[i] * calibScale(windowCalib(s.refs, i))
	}
	q1, med, q3 := quartiles(cal)
	return metric{Value: med, Q1: q1, Q3: q3, N: len(cal), Raw: median(raw), Note: note}
}

// goMetrics fills the go.* runtime figures from the counters taken over
// the measured windows of ops operations.
func goMetrics(res *result, mem *memCounters, ops float64) {
	res.set("go.gc_cycles_per_kop", float64(mem.gcCycles)/(ops/1000))
	res.Metrics["go.gc_pause_ms_per_s"] = metric{Value: float64(mem.pauseNs) / 1e6 / (float64(mem.ns) / 1e9),
		Note: "stop-the-world pause per second of measured window (raw time)"}
	res.set("go.heap_live_mb", float64(mem.heapLive)/(1<<20))
}
