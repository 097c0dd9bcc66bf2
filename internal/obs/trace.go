package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// TraceSink emits Chrome trace-event-format JSON — one event per line,
// wrapped in a JSON array — loadable in Perfetto and chrome://tracing.
// Timestamps are the simulator's virtual clock converted to integer
// microseconds, never the wall clock, so identical runs produce
// byte-identical traces.
//
// Track layout (pids are process groups in the trace UI):
//
//	pid 1  "cluster: map slots"     one thread per map slot; task spans
//	pid 2  "cluster: reduce slots"  one thread per reduce slot; task spans
//	pid 3  "scheduler"              instant events per PickJob decision
//	pid 4  "faults"                 one thread per node: crash, recover, blacklist
//	pid 5  "model lifecycle"        promotion instants at their job-sample counts
//	pid ≥ 100                       one process per (run, query): the
//	                                query span on thread 0 and one thread
//	                                per job, so query→job→task lifecycles
//	                                nest visually.
type TraceSink struct {
	w       io.Writer
	started bool
	err     error
}

// Fixed process ids of the shared tracks.
const (
	PidMapSlots    = 1
	PidReduceSlots = 2
	PidScheduler   = 3
	PidFaults      = 4
	PidLearn       = 5
	// pidQueryBase is the first per-query process id.
	pidQueryBase = 100
)

// NewTraceSink writes trace events to w. Call Close when the run ends to
// terminate the JSON array (viewers tolerate an unterminated array, so a
// crashed run still yields a loadable trace).
func NewTraceSink(w io.Writer) *TraceSink { return &TraceSink{w: w} }

// Close terminates the JSON array and returns the first write error.
func (t *TraceSink) Close() error {
	if t.err != nil {
		return t.err
	}
	if !t.started {
		_, t.err = io.WriteString(t.w, "[\n]\n")
		return t.err
	}
	_, t.err = io.WriteString(t.w, "\n]\n")
	return t.err
}

// micros converts simulated seconds to integer trace microseconds.
func micros(sec float64) int64 { return int64(math.Round(sec * 1e6)) }

// jsonNum formats a float as a JSON number (Inf/NaN are not valid JSON;
// they are clamped to null, which trace viewers ignore).
func jsonNum(v float64) string {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return "null"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// rec is one trace event ahead of its args. ph is the Chrome phase: "M"
// metadata, "i" thread-scoped instant at at, "X" complete span at..end.
type rec struct {
	name, cat, ph string
	pid, tid      int
	at, end       float64
}

// write serialises one event; every exporter goes through it.
func (t *TraceSink) write(r rec, args []Attr) {
	if t.err != nil {
		return
	}
	var b strings.Builder
	if t.started {
		b.WriteString(",\n")
	} else {
		b.WriteString("[\n")
		t.started = true
	}
	fmt.Fprintf(&b, `{"name":%q,"ph":%q,"ts":%d,"pid":%d,"tid":%d`, r.name, r.ph, micros(r.at), r.pid, r.tid)
	if r.cat != "" {
		fmt.Fprintf(&b, `,"cat":%q`, r.cat)
	}
	switch r.ph {
	case "X":
		fmt.Fprintf(&b, `,"dur":%d`, max(0, micros(r.end)-micros(r.at)))
	case "i":
		b.WriteString(`,"s":"t"`)
	}
	for i, a := range args {
		if i == 0 {
			b.WriteString(`,"args":{`)
		} else {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(a.Key))
		b.WriteByte(':')
		a.appendJSON(&b)
	}
	if len(args) > 0 {
		b.WriteByte('}')
	}
	b.WriteByte('}')
	_, t.err = io.WriteString(t.w, b.String())
}

// meta labels a process group (what "process_name", tid 0) or one of its
// thread tracks (what "thread_name") in the trace UI.
func (t *TraceSink) meta(what string, pid, tid int, label string) {
	t.write(rec{name: what, ph: "M", pid: pid, tid: tid}, []Attr{AttrStr("name", label)})
}
