package obs_test

import (
	"testing"

	"saqp/internal/obs"
)

var hotSinkU64 uint64

// TestHotPathAllocs is the runtime half of the //saqp:hotpath contract.
// Emitting any event kind on a nil observer must not allocate (pool
// simulators run unobserved), nor may any report on a metrics-only
// observer: the three verbs and Emit's registry half are everything a
// serving stack with metrics on pays per request.
func TestHotPathAllocs(t *testing.T) {
	id := obs.TraceID("select 1\x00cat", 1)
	everyKind := func(o *obs.Observer) {
		for k := obs.Kind(0); k <= obs.LearnPromotion; k++ {
			for _, reduce := range []bool{false, true} {
				o.Emit(obs.Event{Kind: k, At: 9, Start: 4, Query: "q", Job: "q/J1", JobType: "Join",
					Reduce: reduce, Index: 3, Node: 1, Slot: 2, Pred: 5, Label: "SWRD"},
					obs.AttrStr("reason", "r"), obs.AttrInt("maps", 1234), obs.AttrFloat("wrd", 0.37), obs.AttrBool("hit", true))
			}
		}
	}
	verbs := func(o *obs.Observer) {
		o.Count(obs.MNetCommands)
		o.Set(obs.MServeInflight, 1000)
		o.Observe(obs.MServeSimResponseSec, 12.5)
	}
	metricsOnly := &obs.Observer{Metrics: obs.NewRegistry()}
	cases := []struct {
		name string
		fn   func()
	}{
		{"FNV64a", func() { hotSinkU64 = obs.FNV64a(id) }},
		{"nil Observer.Emit", func() { everyKind(nil) }},
		{"nil Observer verbs and typed methods", func() {
			var o *obs.Observer
			verbs(o)
			o.SchedulerDecision(1, "SWRD", false, "q/J1", 1000, nil)
			o.LearnPromotion(1000, 1000, 0.5, 0.25)
		}},
		{"metrics-only Observer.Emit", func() { everyKind(metricsOnly) }},
		{"metrics-only Observer verbs", func() { verbs(metricsOnly) }},
		{"metrics-only Observer.SchedulerDecision", func() {
			metricsOnly.SchedulerDecision(1, "SWRD", false, "", 1000, nil)
		}},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(200, c.fn); n != 0 {
			t.Errorf("%s allocates %.0f times per call; the per-request reporting path must not allocate", c.name, n)
		}
	}
}
