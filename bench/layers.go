package main

// missStages are replayed stages the serving path runs only on a
// plan-cache miss; the others run on every request.
var missStages = map[string]bool{
	"query.resolve": true, "plan.compile": true, "selectivity.estimate": true, "predict.score": true,
}

// reqTimes is one sampled unloaded-segment request: calibrated
// microseconds of the request itself and of each replayed stage.
type reqTimes struct {
	hit     bool
	request float64
	stage   map[string]float64
}

// onPath sums the replayed stages the request's serving path executed.
func (r *reqTimes) onPath(learn bool) float64 {
	t := r.stage["query.parse"] + r.stage["query.normalize"] + r.stage["cluster.build"] + r.stage["cluster.simulate"]
	if learn {
		t += r.stage["learn.observe"]
	}
	if !r.hit {
		for s := range missStages {
			t += r.stage[s]
		}
	}
	return t
}

// layerMetrics derives the span-based per-layer metrics of a serving
// workload from res.spans. Only unloaded-segment spans are used: with a
// window of 1 a request's latency is its service time, and the replay
// is not competing with a full pipeline. Every duration is a self time,
// calibrated like its round's latencies.
func layerMetrics(res *result, rs *roundSet, net bool) {
	self := selfTimes(res.spans)
	scales := make([]float64, len(rs.rounds)) // ns → calibrated µs, per round
	for i := range scales {
		scales[i] = rs.scale(i) / 1e3
	}
	byName := make(map[string][]float64)
	reqs := make(map[uint64]*reqTimes)
	for _, s := range res.spans {
		if s.Seg != segUnloaded {
			continue
		}
		scale := scales[s.Round]
		r := reqs[s.Req]
		if r == nil {
			r = &reqTimes{stage: make(map[string]float64)}
			reqs[s.Req] = r
		}
		switch s.Name {
		case "request":
			r.request, r.hit = float64(s.dur())*scale, s.Attr == "hit"
			byName[s.Name] = append(byName[s.Name], r.request)
		case "serve.request_inproc":
			// Needed whole, not as self time: it is the in-process request.
			r.stage[s.Name] = float64(s.dur()) * scale
		default:
			us := float64(self[s.ID]) * scale
			r.stage[s.Name] = us
			byName[s.Name] = append(byName[s.Name], us)
		}
	}

	var serveOver, netOver []float64
	misses := 0
	for _, r := range reqs {
		if r.request == 0 || len(r.stage) < 4 {
			continue // span cap cut the request or its replay short
		}
		if !r.hit {
			misses++
		}
		if !net {
			serveOver = append(serveOver, r.request-r.onPath(false))
			continue
		}
		// The in-process comparison request always hits (the wire request
		// just inserted the plan), so a wire miss also owes the miss stages.
		inproc := r.stage["serve.request_inproc"]
		hit := reqTimes{hit: true, stage: r.stage}
		serveOver = append(serveOver, inproc-hit.onPath(true))
		netOver = append(netOver, r.request-inproc-(r.onPath(true)-hit.onPath(true)))
	}
	byName["serve.overhead"] = serveOver

	us := func(metricName, spanName string) {
		if len(byName[spanName]) == 0 {
			return // a stage this workload's path does not have
		}
		q1, med, q3 := quartiles(byName[spanName])
		res.Metrics[metricName] = metric{Value: med, Q1: q1, Q3: q3, N: len(byName[spanName])}
	}
	for _, s := range stageNames {
		us(s+"_us", s)
	}
	for _, s := range []string{"serve.submit", "serve.wait"} {
		us(s+"_us", s)
	}
	if net {
		for _, s := range []string{"net.submit_rtt", "net.wait_rtt"} {
			us(s+"_us", s)
		}
		res.set("net.overhead_us", median(netOver))
		res.set("proto.encode_ns", median(byName["proto.encode"])*1e3)
		res.set("proto.decode_ns", median(byName["proto.decode"])*1e3)
	}
	if tasks := res.Metrics["cluster.tasks_per_query"].Value; tasks > 0 {
		res.set("cluster.simulate_ns_per_task", res.Metrics["cluster.simulate_us"].Value*1e3/tasks)
	}

	// Shares: a stage's median self time, weighted by how often the
	// serving path runs it, over the median request.
	request := median(byName["request"])
	missFrac := 0.0
	if n := len(serveOver); n > 0 {
		missFrac = float64(misses) / float64(n)
	}
	for _, s := range stageNames {
		share := 0.0
		if request > 0 {
			share = res.Metrics[s+"_us"].Value / request
			if missStages[s] {
				share *= missFrac
			}
		}
		res.set(s+"_share", share)
	}
}
