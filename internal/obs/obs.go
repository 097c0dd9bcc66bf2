package obs

import (
	"strconv"
	"strings"
)

// Observer bundles the sinks behind the instrumentation seam the
// simulator, the schedulers and the serving layers call into. Any field
// may be nil to disable that sink; a nil *Observer disables everything.
type Observer struct {
	Metrics *Registry
	Trace   *TraceSink
	Drift   *DriftRecorder
	// Spans is the request tree a simulator run's spans are appended
	// to; the serving engine attaches a spans-only Observer to each
	// traced run (see span.go).
	Spans *QuerySpan

	// run namespaces per-query trace processes so repeated query ids
	// (the same workload replayed under several schedulers) get distinct
	// tracks instead of overlapping spans.
	run     string
	nextPid int
	qpids   map[string]int // query id (this run) → pid
	jtids   map[string]int // job id (this run) → tid within its query's pid
	jnext   map[int]int    // pid → next free job tid

	// learnMeta latches the one-time naming of the model-lifecycle track.
	// Only the learn registry emits promotions, under its own mutex, which
	// is also what makes its writes to the unlocked TraceSink safe.
	learnMeta bool
}

// New builds an observer with a fresh metrics registry and drift
// recorder; trace may be nil to disable tracing. A zero Observer struct
// is also usable — per-query track state initialises lazily.
func New(trace *TraceSink) *Observer {
	return &Observer{
		Metrics: NewRegistry(),
		Trace:   trace,
		Drift:   NewDriftRecorder(),
	}
}

// Close flushes the trace sink, if any, and returns its first error.
func (o *Observer) Close() error {
	if o == nil || o.Trace == nil {
		return nil
	}
	return o.Trace.Close()
}

// itoa is strconv.Itoa under a shorter name for the name builders.
func itoa(v int) string { return strconv.Itoa(v) }

// runKey namespaces an id under the current run label.
func (o *Observer) runKey(id string) string { return o.run + "\x00" + id }

// RunStarted namespaces subsequent per-query trace tracks under label
// (typically the scheduler name). The cluster simulator calls it from
// SetObserver; metrics and drift keep accumulating across runs.
func (o *Observer) RunStarted(label string) {
	if o == nil {
		return
	}
	o.run = label
}

// pidOf returns (allocating on first use) the trace process id of a
// query, naming its process and lifecycle thread on allocation.
func (o *Observer) pidOf(query string) int {
	if o.qpids == nil {
		o.qpids = map[string]int{}
		o.jtids = map[string]int{}
		o.jnext = map[int]int{}
		o.nextPid = pidQueryBase
	}
	key := o.runKey(query)
	if pid, ok := o.qpids[key]; ok {
		return pid
	}
	pid := o.nextPid
	o.nextPid++
	o.qpids[key] = pid
	o.jnext[pid] = 1 // tid 0 is the query lifecycle track
	name := "query " + query
	if o.run != "" {
		name = o.run + " " + name
	}
	o.Trace.meta("process_name", pid, 0, name)
	o.Trace.meta("thread_name", pid, 0, "query")
	return pid
}

// track resolves an event's timeline row, naming per-query and per-job
// rows the first time they are used.
func (o *Observer) track(t track, e *Event) (pid, tid int) {
	switch t {
	case tQuery:
		return o.pidOf(e.Query), 0
	case tJob:
		pid := o.pidOf(e.Query)
		key := o.runKey(e.Job)
		tid, ok := o.jtids[key]
		if !ok {
			tid = o.jnext[pid]
			o.jnext[pid] = tid + 1
			o.jtids[key] = tid
			o.Trace.meta("thread_name", pid, tid, e.Job+" ("+e.JobType+")")
		}
		return pid, tid
	case tSlot:
		if e.Reduce {
			return PidReduceSlots, e.Slot
		}
		return PidMapSlots, e.Slot
	case tNode:
		return PidFaults, e.Node
	case tSched:
		if e.Reduce {
			return PidScheduler, 1
		}
		return PidScheduler, 0
	}
	if !o.learnMeta {
		o.learnMeta = true
		o.Trace.meta("process_name", PidLearn, 0, "model lifecycle")
		o.Trace.meta("thread_name", PidLearn, 0, "promotions")
	}
	return PidLearn, 0
}

// ClusterInfo names the shared slot and scheduler tracks and, when the
// run has a fault plan, the per-node fault tracks. The simulator calls it
// once per run when an observer is attached.
func (o *Observer) ClusterInfo(nodes, mapSlotsPerNode, redSlotsPerNode int, faults bool) {
	if o == nil || o.Trace == nil {
		return
	}
	t := o.Trace
	t.meta("process_name", PidMapSlots, 0, "cluster: map slots")
	t.meta("process_name", PidReduceSlots, 0, "cluster: reduce slots")
	t.meta("process_name", PidScheduler, 0, "scheduler")
	t.meta("thread_name", PidScheduler, 0, "map decisions")
	t.meta("thread_name", PidScheduler, 1, "reduce decisions")
	for n := 0; n < nodes; n++ {
		for k := 0; k < mapSlotsPerNode; k++ {
			t.meta("thread_name", PidMapSlots, n*mapSlotsPerNode+k, "node "+itoa(n)+" slot "+itoa(k))
		}
		for k := 0; k < redSlotsPerNode; k++ {
			t.meta("thread_name", PidReduceSlots, n*redSlotsPerNode+k, "node "+itoa(n)+" slot "+itoa(k))
		}
	}
	if !faults {
		return
	}
	t.meta("process_name", PidFaults, 0, "faults")
	for n := 0; n < nodes; n++ {
		t.meta("thread_name", PidFaults, n, "node "+itoa(n))
	}
}

// LearnPromotion records a champion promotion: the model-version gauge
// and a LearnPromotion event positioned at the promotion's job-sample
// count — the registry has no clock, so seeded replays emit identical
// events. championErr is −1 for the cold-start bootstrap.
func (o *Observer) LearnPromotion(version, atJobSamples int, championErr, challengerErr float64) {
	if o == nil {
		return
	}
	o.Set(MLearnModelVersion, float64(version))
	o.Emit(Event{Kind: LearnPromotion, At: float64(atJobSamples), Label: "promote v" + itoa(version)},
		AttrInt("version", version), AttrInt("at_job_samples", atJobSamples),
		AttrFloat("champion_err", championErr), AttrFloat("challenger_err", challengerErr))
}

// Candidate is one job in a scheduler decision's ranking.
type Candidate struct {
	Job     string
	Query   string
	WRD     float64 // the query's remaining Weighted Resource Demand (Eq. 10)
	Running int     // the job's currently running tasks (fair-share signal)
	Submit  float64 // the job's submission time (FIFO signal)
}

// maxTraceCandidates caps the candidate list recorded per decision.
// Under heavy queueing the list is O(queued jobs) per PickJob call and
// would dominate trace size; the head of the queue plus the winner still
// answers "why was this picked", and the full depth is kept as a scalar.
const maxTraceCandidates = 8

// SchedulerDecision records one PickJob call: which job won the slot
// (picked is "" when nothing was) out of queueDepth candidates. With a
// timeline attached, cands is the ranking the policy saw, so "why did the
// scheduler pick this query" is answerable from the trace; callers
// without one pass nil.
func (o *Observer) SchedulerDecision(now float64, scheduler string, reduce bool,
	picked string, queueDepth int, cands []Candidate) {
	if o == nil {
		return
	}
	if picked == "" {
		o.Count(MSchedIdleDecisions)
	}
	phase := "map"
	if reduce {
		phase = "reduce"
	}
	attrs := [4]Attr{AttrStr("phase", phase), AttrStr("picked", picked), AttrInt("queue_depth", queueDepth)}
	n := 3
	if o.Trace != nil {
		attrs[3] = Attr{Key: "candidates", Val: candidatesJSON(picked, cands), typ: attrJSON}
		n = 4
	}
	o.Emit(Event{Kind: SchedDecision, At: now, Label: scheduler, Job: picked, Reduce: reduce}, attrs[:n]...)
}

// candidatesJSON serialises a decision's ranking, capped at
// maxTraceCandidates with the winner always included.
func candidatesJSON(picked string, cands []Candidate) string {
	record := cands
	if len(cands) > maxTraceCandidates {
		record = cands[:maxTraceCandidates:maxTraceCandidates]
		inHead := false
		for _, c := range record {
			inHead = inHead || c.Job == picked
		}
		for _, c := range cands[maxTraceCandidates:] {
			if !inHead && c.Job == picked {
				record = append(record, c)
				break
			}
		}
	}
	var b strings.Builder
	b.WriteByte('[')
	for i, c := range record {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"job":`)
		b.WriteString(strconv.Quote(c.Job))
		b.WriteString(`,"query":`)
		b.WriteString(strconv.Quote(c.Query))
		b.WriteString(`,"wrd":`)
		b.WriteString(jsonNum(c.WRD))
		b.WriteString(`,"running":`)
		b.WriteString(strconv.Itoa(c.Running))
		b.WriteString(`,"submit_sec":`)
		b.WriteString(jsonNum(c.Submit))
		b.WriteByte('}')
	}
	b.WriteByte(']')
	return b.String()
}
