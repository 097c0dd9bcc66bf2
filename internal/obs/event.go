package obs

import (
	"strconv"
	"strings"
)

// Attr is one ordered key/value pair on an event or a span. Typed
// constructors keep the value unrendered, so building attributes for a
// nil observer costs nothing; Val is filled when a span stores the
// attribute, and is all that survives a JSON round trip.
type Attr struct {
	Key string `json:"k"`
	Val string `json:"v"`
	num float64
	typ attrType
}

type attrType uint8

const (
	attrStr attrType = iota // Val holds the value
	attrInt
	attrFloat
	attrBool
	attrJSON // Val is pre-serialised JSON, spliced into timeline args verbatim
)

// AttrStr builds a string-valued attribute.
func AttrStr(k, v string) Attr { return Attr{Key: k, Val: v} }

// AttrInt builds an integer-valued attribute.
func AttrInt(k string, v int) Attr { return Attr{Key: k, num: float64(v), typ: attrInt} }

// AttrFloat builds a float-valued attribute (shortest round-trip
// formatting, matching the metrics exposition).
func AttrFloat(k string, v float64) Attr { return Attr{Key: k, num: v, typ: attrFloat} }

// AttrBool builds a boolean-valued attribute.
func AttrBool(k string, v bool) Attr {
	a := Attr{Key: k, typ: attrBool}
	if v {
		a.num = 1
	}
	return a
}

// text renders the value the way span trees store it.
func (a Attr) text() string {
	switch a.typ {
	case attrInt:
		return strconv.Itoa(int(a.num))
	case attrFloat:
		return fnum(a.num)
	case attrBool:
		return strconv.FormatBool(a.num != 0)
	}
	return a.Val
}

// appendJSON renders the value as a JSON literal for timeline args.
func (a Attr) appendJSON(b *strings.Builder) {
	switch a.typ {
	case attrStr:
		b.WriteString(strconv.Quote(a.Val))
	case attrFloat:
		b.WriteString(jsonNum(a.num))
	default:
		b.WriteString(a.text())
	}
}

// rendered copies attrs with every value rendered to text — the form a
// span retains and serialises.
func rendered(attrs []Attr) []Attr {
	if len(attrs) == 0 {
		return nil
	}
	out := make([]Attr, len(attrs))
	for i, a := range attrs {
		out[i] = Attr{Key: a.Key, Val: a.text()}
	}
	return out
}

// Kind names one observable occurrence. The kinds table below says what
// each kind moves, carries and renders as.
type Kind uint8

// Event kinds.
const (
	QueryArrived Kind = iota
	QueryFinished
	QueryFailed // abandoned: a task exhausted the attempt cap
	JobSubmitted
	JobFinished
	ReduceHoarded // slowstart launched a reduce before its job's maps finished
	TaskFinished
	TaskFailed   // transient attempt failure; the task backs off and retries
	ShuffleReady // a job's map phase finished, releasing its hoarding reduces
	ReducePreempted
	NodeCrashed
	NodeRecovered
	NodeBlacklisted
	SchedDecision  // via Observer.SchedulerDecision
	LearnPromotion // via Observer.LearnPromotion; At is a job-sample count, not a time
	numKinds
)

// Event is one observable occurrence. Times are virtual simulator
// seconds; identity fields a kind does not use stay zero.
type Event struct {
	Kind  Kind
	At    float64 // when it happened; the end of a ranged kind
	Start float64 // start of a ranged kind (arrival, submission, dispatch)

	Query, Job, JobType string
	Reduce              bool
	Index, Node, Slot   int

	Pred    float64 // TaskFinished: the predicted seconds drift compares against
	Faulted bool    // TaskFinished: the runtime was perturbed by injected faults
	Label   string  // the scheduler of a decision; the whole name of a promotion
}

// carry selects the Event fields a kind renders as attributes, ahead of
// the caller's own.
type carry uint8

const (
	cQuery carry = 1 << iota
	cJob
	cType
	cNode
	cSlot
	cPred
	cFaulted
)

// naming is how a kind's display name is built from its prefix.
type naming uint8

const (
	nFixed    naming = iota // prefix alone
	nQuery                  // prefix + "query <id>"
	nJob                    // "<job> (<type>)"
	nTask                   // prefix + "<job> m<i>" / "<job> r<i>"
	nNode                   // prefix + "node <n>"
	nDecision               // "<scheduler>: <picked job>" / "<scheduler>: idle"
	nLabel                  // Event.Label
)

// track is the timeline row a kind renders on.
type track uint8

const (
	tQuery track = iota // the query's process, lifecycle thread
	tJob                // the query's process, the job's thread
	tSlot               // the map/reduce slot process, the slot's thread
	tNode               // the fault process, the node's thread
	tSched              // the scheduler process, one thread per phase
	tLearn              // the model-lifecycle process
)

// form is the shape of a kind's span in a request tree.
type form uint8

const (
	fPoint form = iota // zero-width at At
	fRange             // Start..At
	fOpen              // opens the job's span at At; children parent onto it
	fClose             // closes the job's span at At
)

// kindSpec is one row of the kinds table: which metrics the kind moves,
// what it carries, and how the timeline and the span tree render it.
type kindSpec struct {
	counter    CounterID   // bumped once per event
	redCounter CounterID   // bumped instead of counter when Event.Reduce
	hist       HistogramID // observes At−Start
	durKey     string      // attribute key carrying At−Start
	carries    carry

	track  track
	cat    string // timeline category
	ranged bool   // timeline "X" complete event Start..At, else an instant at At
	name   naming
	prefix string
	onLine string // timeline name when it is not the span's

	span     string // span kind; "" keeps the kind out of request trees
	form     form
	underJob bool // parent is the job's open span, else the run
}

var kinds = [numKinds]kindSpec{
	QueryArrived:  {counter: MQueriesSubmitted, track: tQuery, cat: "query", prefix: "arrive"},
	QueryFinished: {counter: MQueriesCompleted, hist: MQueryResponseSec, durKey: "response_sec", track: tQuery, cat: "query", ranged: true, name: nQuery},
	QueryFailed:   {counter: MQueryFailures, track: tQuery, cat: "fault", ranged: true, name: nQuery, prefix: "FAILED "},
	JobSubmitted: {counter: MJobsSubmitted, carries: cType, track: tJob, cat: "job", name: nJob, onLine: "submit",
		span: SpanKindJob, form: fOpen},
	JobFinished: {counter: MJobsCompleted, hist: MJobRuntimeSec, durKey: "runtime_sec", track: tJob, cat: "job", ranged: true, name: nJob,
		span: SpanKindJob, form: fClose},
	ReduceHoarded: {counter: MReduceHoards, carries: cJob | cNode, track: tSlot, cat: "cluster", name: nTask, prefix: "slowstart hoard "},
	TaskFinished: {counter: MMapTasksDone, redCounter: MReduceTasksDone, hist: MTaskRuntimeSec,
		carries: cQuery | cType | cNode | cSlot | cPred | cFaulted, track: tSlot, cat: "cluster", ranged: true, name: nTask,
		span: SpanKindTask, form: fRange, underJob: true},
	TaskFailed:   {counter: MTaskFailures, carries: cQuery | cType | cNode, track: tSlot, cat: "fault", ranged: true, name: nTask, prefix: "FAIL "},
	ShuffleReady: {track: tJob, cat: "job", prefix: "maps done", span: SpanKindJob, underJob: true},
	ReducePreempted: {counter: MReducePreemptions, carries: cQuery | cSlot, track: tSlot, cat: "cluster", name: nTask, prefix: "preempt ",
		span: SpanKindSched, underJob: true},
	NodeCrashed:     {counter: MNodeCrashes, track: tNode, cat: "fault", name: nNode, prefix: "crash "},
	NodeRecovered:   {counter: MNodeRecoveries, track: tNode, cat: "fault", name: nNode, prefix: "recover "},
	NodeBlacklisted: {counter: MNodeBlacklists, track: tNode, cat: "fault", name: nNode, prefix: "blacklist "},
	SchedDecision:   {counter: MSchedDecisions, track: tSched, cat: "sched", name: nDecision, span: SpanKindSched},
	LearnPromotion:  {counter: MLearnPromotions, track: tLearn, cat: "learn", name: nLabel},
}

// name builds the event's display name under rule s.name.
func (e *Event) name(s *kindSpec) string {
	switch s.name {
	case nQuery:
		return s.prefix + "query " + e.Query
	case nJob:
		return e.Job + " (" + e.JobType + ")"
	case nTask:
		phase := " m"
		if e.Reduce {
			phase = " r"
		}
		return s.prefix + e.Job + phase + itoa(e.Index)
	case nNode:
		return s.prefix + "node " + itoa(e.Node)
	case nDecision:
		if e.Job == "" {
			return e.Label + ": idle"
		}
		return e.Label + ": " + e.Job
	case nLabel:
		return e.Label
	}
	return s.prefix
}

// carried appends the Event fields s.carries selects, then At−Start
// under s.durKey.
func (e *Event) carried(s *kindSpec, out []Attr) []Attr {
	if s.carries&cQuery != 0 {
		out = append(out, AttrStr("query", e.Query))
	}
	if s.carries&cJob != 0 {
		out = append(out, AttrStr("job", e.Job))
	}
	if s.carries&cType != 0 {
		out = append(out, AttrStr("type", e.JobType))
	}
	if s.carries&cNode != 0 {
		out = append(out, AttrInt("node", e.Node))
	}
	if s.carries&cSlot != 0 {
		out = append(out, AttrInt("slot", e.Slot))
	}
	if s.carries&cPred != 0 {
		out = append(out, AttrFloat("pred_sec", e.Pred))
	}
	if s.carries&cFaulted != 0 {
		out = append(out, AttrBool("faulted", e.Faulted))
	}
	if s.durKey != "" {
		out = append(out, AttrFloat(s.durKey, e.At-e.Start))
	}
	return out
}

// Emit records one event on every attached sink: the registry moves the
// kind's counter and histogram, the drift recorder takes a finished
// task's predicted-vs-observed pair, and the timeline and the request
// tree render it with the carried fields followed by attrs.
// attrs is not retained.
func (o *Observer) Emit(e Event, attrs ...Attr) {
	if o == nil {
		return
	}
	s := &kinds[e.Kind]
	c := s.counter
	if e.Reduce && s.redCounter != 0 {
		c = s.redCounter
	}
	if c != 0 {
		o.Count(c)
	}
	if s.hist != 0 {
		o.Observe(s.hist, e.At-e.Start)
	}
	if o.Drift != nil && e.Kind == TaskFinished {
		o.Drift.RecordTask(e.JobType, e.Reduce, e.Pred, e.At-e.Start, e.Faulted)
	}
	onTree := o.Spans != nil && s.span != ""
	if o.Trace == nil && !onTree {
		return
	}
	var buf [12]Attr
	all := append(e.carried(s, buf[:0]), attrs...)
	if onTree {
		o.Spans.add(s, &e, all)
	}
	if o.Trace != nil {
		r := rec{name: s.onLine, cat: s.cat, ph: "i", at: e.At}
		if r.name == "" {
			r.name = e.name(s)
		}
		if s.ranged {
			r.ph, r.at, r.end = "X", e.Start, e.At
		}
		r.pid, r.tid = o.track(s.track, &e)
		o.Trace.write(r, all)
	}
}
