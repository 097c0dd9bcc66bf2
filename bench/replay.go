package main

import (
	"bufio"
	"bytes"
	"context"
	"strconv"
	"time"

	"saqp"
	"saqp/internal/cluster"
	"saqp/internal/net/proto"
	"saqp/internal/plan"
	"saqp/internal/predict"
	"saqp/internal/query"
	"saqp/internal/sched"
	"saqp/internal/selectivity"
	"saqp/internal/trace"
)

// tracer records one client's spans on a traced run: around the real
// calls (request ⊃ submit, wait) and, for sampled requests of the
// unloaded segment, a sibling replay tree timing a direct call to each
// layer's public function for the same SQL and seed.
type tracer struct {
	run *servingRun
	rec *recorder
	req uint64

	pol   cluster.Scheduler
	cc    cluster.Config
	slots predict.Slots
	ov    predict.Overheads
	// learner is a scratch registry configured like the server's own, so
	// replayed feedback costs what real feedback costs without steering
	// the served model. Nil when the workload has learning off.
	learner *saqp.Learner

	frame bytes.Buffer
	enc   *proto.Encoder

	// sinkString and sinkFloat keep replayed results live so the calls
	// cannot be optimised away.
	sinkString string
	sinkFloat  float64

	inprocCompletions int64
	replayErrors      int64
}

func newTracer(run *servingRun, epoch time.Time, idBase uint64, limit int) *tracer {
	pol, _ := sched.ByName(saqp.SchedulerSWRD)
	cc := cluster.DefaultConfig()
	t := &tracer{
		run: run, rec: newRecorder(epoch, idBase, limit), req: idBase, pol: pol, cc: cc,
		slots: predict.Slots{Map: cc.Nodes * cc.MapSlotsPerNode, Reduce: cc.Nodes * cc.ReduceSlotsPerNode},
		ov:    predict.Overheads{SchedPerTaskSec: cc.SchedulingOverheadSec, JobInitSec: cc.JobInitSec},
	}
	t.enc = proto.NewEncoder(bufio.NewWriter(&t.frame))
	if run.w.net {
		t.learner = run.env.f.NewLearner(saqp.LearnerConfig{})
	}
	return t
}

// request records a completed sampled request's spans and, in the
// unloaded segment, its replay.
func (t *tracer) request(pd pending, tw0, tw1 time.Time, hit bool, seg string, round int) {
	t.req++
	base := span{Req: t.req, Round: round, Seg: seg}
	submit, wait := "serve.submit", "serve.wait"
	if t.run.w.net {
		submit, wait = "net.submit_rtt", "net.wait_rtt"
	}
	root := base
	root.ID, root.Name, root.Attr = t.rec.reserve(), "request", "miss"
	if hit {
		root.Attr = "hit"
	}
	base.Parent = root.ID
	t.child(base, submit, pd.t0, pd.t1)
	t.child(base, wait, tw0, tw1)
	t.rec.add(root, pd.t0, tw1)
	if seg == segUnloaded {
		base.Parent = 0
		t.replay(base, t.run.ops.sql(pd.pair), t.run.ops.seeds[pd.pair])
	}
}

// child records a leaf span named name under base.Parent.
func (t *tracer) child(base span, name string, start, end time.Time) {
	base.Name = name
	t.rec.add(base, start, end)
}

// replay times each layer's public function once for (sql, seed).
func (t *tracer) replay(base span, sql string, seed uint64) {
	f := t.run.env.f
	root := base
	root.ID, root.Name = t.rec.reserve(), "replay"
	base.Parent = root.ID
	start := time.Now()
	var err error
	// stage times fn as a child span of the replay root; fn receives its
	// own span so it can parent further children.
	stage := func(name string, fn func(self span)) {
		if err != nil {
			return
		}
		sp := base
		sp.ID, sp.Name = t.rec.reserve(), name
		s := time.Now()
		fn(sp)
		t.rec.add(sp, s, time.Now())
	}

	var q *query.Query
	var d *plan.DAG
	var qe *selectivity.QueryEstimate
	var cq *cluster.Query
	stage("query.parse", func(span) { q, err = query.Parse(sql) })
	stage("query.normalize", func(span) { t.sinkString = q.String() })
	stage("query.resolve", func(span) { err = query.Resolve(q, f.Schemas) })
	stage("plan.compile", func(span) { d, err = plan.Compile(q) })
	stage("selectivity.estimate", func(span) { qe, err = f.Estimator.EstimateQuery(d) })
	stage("predict.score", func(span) {
		t.sinkFloat = f.TaskTime.WRD(qe) + f.TaskTime.PredictQuery(qe, t.slots, t.ov)
	})
	stage("cluster.build", func(span) {
		cq = cluster.BuildQuery("replay", qe, trace.NewDefaultCostModel(seed), f.TaskTime)
	})
	stage("cluster.simulate", func(span) {
		sim := cluster.New(t.cc, t.pol)
		sim.Submit(cq, 0)
		_, err = sim.Run()
	})
	if t.learner != nil {
		stage("learn.observe", func(span) { observe(t.learner, qe, cq) })
	}
	if t.run.w.net {
		t.frame.Reset()
		stage("proto.encode", func(span) { err = t.encodeFrames(sql, seed, cq) })
		stage("proto.decode", func(span) { err = decodeFrames(t.frame.Bytes()) })
		stage("serve.request_inproc", func(self span) { err = t.inproc(self, sql, seed) })
	}
	t.rec.add(root, start, time.Now())
	if err != nil {
		t.replayErrors++
	}
}

// inproc submits the op directly to the server behind the frontend — a
// plan-cache hit, since the wire request just inserted it — recording
// serve.submit and serve.wait under the calling stage's span.
func (t *tracer) inproc(stage span, sql string, seed uint64) error {
	base := span{Parent: stage.ID, Req: stage.Req, Round: stage.Round, Seg: stage.Seg}
	t0 := time.Now()
	tk, err := t.run.env.srv.Submit(context.Background(), sql, seed)
	t1 := time.Now()
	if err != nil {
		return err
	}
	_, err = tk.Wait(context.Background())
	t2 := time.Now()
	if err != nil {
		return err
	}
	t.inprocCompletions++
	t.child(base, "serve.submit", t0, t1)
	t.child(base, "serve.wait", t1, t2)
	return nil
}

// encodeFrames encodes the op's SUBMIT request and a WAIT reply shaped
// like the server's into t.frame.
func (t *tracer) encodeFrames(sql string, seed uint64, cq *cluster.Query) error {
	e := t.enc
	e.Array(3)
	e.BulkString("SUBMIT")
	e.BulkString(sql)
	e.BulkString(strconv.FormatUint(seed, 10))
	maps, reds := 0, 0
	for _, j := range cq.Jobs {
		maps += len(j.Maps)
		reds += len(j.Reds)
	}
	e.Array(22)
	for _, kv := range []struct {
		k string
		v any
	}{
		{"id", "q000001"}, {"cache_hit", 1}, {"wrd", 1.5}, {"predicted_sec", 2.5},
		{"sim_sec", cq.ResponseTime()}, {"jobs", len(cq.Jobs)}, {"maps", maps}, {"reduces", reds},
		{"attempts", 1}, {"faulted", 0}, {"model_version", 1},
	} {
		e.BulkString(kv.k)
		switch v := kv.v.(type) {
		case string:
			e.BulkString(v)
		case int:
			e.Int(int64(v))
		case float64:
			e.BulkFloat(v, 3)
		}
	}
	return e.Flush()
}

// decodeFrames decodes the two frames encodeFrames wrote.
func decodeFrames(b []byte) error {
	br := bufio.NewReader(bytes.NewReader(b))
	for i := 0; i < 2; i++ {
		if _, err := proto.ReadValue(br, proto.DefaultLimits()); err != nil {
			return err
		}
	}
	return nil
}

// learnTasksPerGroup mirrors the serving engine's per-group feedback cap.
const learnTasksPerGroup = 8

// observe feeds one simulated query's job and task times to l the way
// the serving engine's feedback step does: one ObserveJob per job and up
// to learnTasksPerGroup ObserveTask per task group.
func observe(l *saqp.Learner, qe *selectivity.QueryEstimate, cq *cluster.Query) {
	for ji, je := range qe.Jobs {
		sj := cq.Jobs[ji]
		if sec := sj.DoneTime - sj.SubmitTime; sec > 0 {
			l.ObserveJob(je.Job.Type, predict.JobFeatures(je), sec)
		}
		pf := je.PFactor()
		feed := func(reduce bool, groups []selectivity.TaskGroup, tasks []*cluster.Task) {
			idx := 0
			for _, g := range groups {
				for i := 0; i < g.Count && i < learnTasksPerGroup && idx+i < len(tasks); i++ {
					if tk := tasks[idx+i]; tk.EndTime > tk.StartTime {
						l.ObserveTask(je.Job.Type, reduce,
							predict.TaskFeatures(je.Job.Type, g.InBytes, g.OutBytes, pf), tk.EndTime-tk.StartTime)
					}
				}
				idx += g.Count
			}
		}
		maps, reds := je.MapGroups, je.ReduceGroups
		if len(maps) == 0 {
			n := float64(len(sj.Maps))
			maps = []selectivity.TaskGroup{{Count: len(sj.Maps), InBytes: je.InBytes / n, OutBytes: je.MedBytes / n}}
		}
		if len(reds) == 0 && len(sj.Reds) > 0 {
			n := float64(len(sj.Reds))
			reds = []selectivity.TaskGroup{{Count: len(sj.Reds), InBytes: je.MedBytes / n, OutBytes: je.OutBytes / n}}
		}
		feed(false, maps, sj.Maps)
		feed(true, reds, sj.Reds)
	}
}
