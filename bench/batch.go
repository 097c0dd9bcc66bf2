package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"saqp"
	"saqp/internal/catalog"
	"saqp/internal/dataset"
	"saqp/internal/mapreduce"
)

const (
	// batchSF is the scale factor batch_tpch materialises (≈ 60 k lineitem
	// rows).
	batchSF = 0.01
	// batchDataSeed generates the data whatever the run seed: like TPC-H's
	// own, the dataset is fixed. At this scale the sampling noise of a
	// re-drawn dataset moves est_err by ±50 % and nothing else by more
	// than 0.6 %, so varying it would only hide estimator changes.
	batchDataSeed = 1
)

// batchEnv is one batch_tpch set-up: generated relations registered
// with a default-configured engine, the catalog collected from them, and
// the seven TPC-H DAGs compiled and estimated against that catalog.
type batchEnv struct {
	eng  *mapreduce.Engine
	dags []*saqp.DAG
	ests []*saqp.QueryEstimate
	rows int64
}

// setupBatch builds the environment and returns how long each phase
// took.
func setupBatch() (*batchEnv, map[string]time.Duration, error) {
	t0 := time.Now()
	e := &batchEnv{eng: mapreduce.New(mapreduce.Config{})}
	var rels []*dataset.Relation
	for _, s := range dataset.TPCH() {
		rel := dataset.Generate(s, batchSF, batchDataSeed)
		e.rows += rel.NumRows()
		e.eng.Register(rel)
		rels = append(rels, rel)
	}
	t1 := time.Now()
	cat := catalog.New()
	for _, rel := range rels {
		cat.Put(catalog.Collect(rel, 0))
	}
	t2 := time.Now()
	f := saqp.NewFrameworkFromCatalog(cat, saqp.Options{})
	for _, name := range tpchNames {
		sql, err := saqp.TPCHSQL(name)
		if err != nil {
			return nil, nil, err
		}
		d, err := f.Compile(sql)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		qe, err := f.Estimate(d)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		e.dags, e.ests = append(e.dags, d), append(e.ests, qe)
	}
	t3 := time.Now()
	return e, map[string]time.Duration{
		"total": t3.Sub(t0), "generate": t1.Sub(t0), "collect": t2.Sub(t1),
	}, nil
}

// jobRows is one executed job's measured row counts, compared between
// passes.
type jobRows struct{ in, med, out int64 }

func runBatchTPCH(cfg runConfig) (res *result, rerr error) {
	res = newResult(cfg)
	res.Clients = 1

	ref, err := startReference()
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := ref.close(); cerr != nil && rerr == nil {
			res, rerr = nil, cerr
		}
	}()
	var env *batchEnv
	setups, err := measureSetups(cfg.setups, ref, func() (phases map[string]time.Duration, win window, err error) {
		env = nil
		runtime.GC() // a set-up in a fresh process starts from an empty heap; untimed
		sw := startWindow()
		env, phases, err = setupBatch()
		return phases, sw.stop(), err
	})
	if err != nil {
		return nil, err
	}
	res.SetupsRaw = setups.reps

	nq := len(env.dags)
	var rec *recorder
	if cfg.trace {
		rec = newRecorder(time.Now(), 0, nq*cfg.rounds) // one span per query and round
	}
	var first map[string]jobRows // job key → first pass's rows
	var isErr, fsErr []float64
	var inRows, medRows, outRows int64
	queryNs := make([][]float64, nq) // per query, one raw duration per round
	lat := make([]int64, nq)
	var mem, countedMem memCounters // countedMem: mem after round countedRounds−1

	stats := make([]map[string]*mapreduce.JobStats, nq)
	pass := func(round int, traced bool) roundRaw {
		mem.begin()
		sw := startWindow()
		for qi, d := range env.dags {
			s := time.Now()
			out, err := env.eng.RunQuery(d)
			e := time.Now()
			res.Attempted++
			lat[qi] = e.Sub(s).Nanoseconds()
			if err != nil {
				res.Failed++
				res.check(false, "%s: %v", tpchNames[qi], err)
				continue
			}
			if traced {
				rec.add(span{Name: "mapreduce.run." + tpchNames[qi], Req: uint64(round + 1), Round: round, Seg: "pass"}, s, e)
			}
			stats[qi] = out.Stats
		}
		rr := roundRaw{Loaded: sw.stop(), LoadedOps: nq, Traced: traced}
		mem.end()
		if round == cfg.countedRounds()-1 {
			countedMem = mem
		}
		// Outside the measured window: compare this pass with the first.
		rows := make(map[string]jobRows)
		for qi, st := range stats {
			for id, js := range st {
				rows[tpchNames[qi]+"/"+id] = jobRows{js.InRows, js.MedRows, js.OutRows}
				if first == nil {
					je := env.ests[qi].ByID[id]
					isErr = append(isErr, math.Abs(je.IS-js.IS()))
					fsErr = append(fsErr, math.Abs(je.FS-js.FS()))
					inRows += js.InRows
					medRows += js.MedRows
					outRows += js.OutRows
				}
			}
		}
		if first == nil {
			first = rows
		} else {
			for k, want := range first {
				res.check(rows[k] == want, "%s: rows %+v differ from the first pass's %+v", k, rows[k], want)
			}
		}
		if round >= 0 {
			for qi, ns := range lat {
				queryNs[qi] = append(queryNs[qi], float64(ns))
			}
		}
		sorted := slices.Clone(lat)
		slices.Sort(sorted)
		rr.P50Ns, rr.TailNs = medianNs(sorted), float64(sorted[nq-1])
		return rr
	}
	rs, err := roundLoop(cfg, ref, pass, func() {
		mem = memCounters{}
		res.Attempted = 0
	})
	if err != nil {
		return nil, err
	}

	ops := float64(cfg.countedRounds() * nq) // what countedMem covers
	rs.timeMetrics(res, "median of the round's 7 DAG times, median over rounds",
		"slowest of the round's 7 DAGs (a round has too few ops for a percentile), median over rounds")
	res.check(res.Failed == 0, "%d queries failed", res.Failed)
	res.Metrics["setup_s"] = setups.metric("total", 1, "generate SF 0.01 TPC-H data, collect catalog, register, compile + estimate 7 DAGs: median of repeated set-ups, calibrated")
	res.Metrics["allocs_per_op"] = metric{Value: float64(countedMem.mallocs) / ops, N: int(ops)}
	res.Metrics["alloc_kb_per_op"] = metric{Value: float64(countedMem.bytes) / 1024 / ops, N: int(ops)}
	res.Metrics["est_err"] = metric{Value: (mean(isErr) + mean(fsErr)) / 2, N: len(isErr),
		Note: "mean over jobs of (|IS_est − IS_measured| + |FS_est − FS_measured|) ÷ 2, estimator over the catalog collected from the same data"}

	res.Metrics["dataset.generate_s"] = setups.metric("generate", 1, "dataset.Generate of the 8 TPC-H tables")
	res.Metrics["catalog.collect_s"] = setups.metric("collect", 1, "catalog.Collect of the 8 TPC-H tables")
	res.set("dataset.rows", float64(env.rows))
	if s := res.Metrics["catalog.collect_s"].Value; s > 0 {
		res.set("catalog.collect_rows_per_s", float64(env.rows)/s)
	}
	res.set("plan.jobs_per_query", float64(len(first))/float64(nq))
	res.set("selectivity.is_abs_err", mean(isErr))
	res.set("selectivity.fs_abs_err", mean(fsErr))
	for qi, name := range tpchNames {
		cal := make([]float64, len(queryNs[qi]))
		for i, ns := range queryNs[qi] {
			cal[i] = ns / 1e6 * rs.scale(i)
		}
		q1, med, q3 := quartiles(cal)
		res.Metrics["mapreduce.run_ms."+name] = metric{Value: med, Q1: q1, Q3: q3, N: len(cal)}
	}
	passSec := rs.perRound(false, func(roundRaw) bool { return true },
		func(r roundRaw, k float64) float64 { return float64(r.Loaded.Ns) * k / 1e9 })
	res.set("mapreduce.in_rows_per_s", float64(inRows)/median(passSec))
	res.set("mapreduce.allocs_per_query", float64(countedMem.mallocs)/ops)
	res.set("mapreduce.alloc_mb_per_query", float64(countedMem.bytes)/(1<<20)/ops)
	res.set("mapreduce.med_rows", float64(medRows))
	res.set("mapreduce.out_rows", float64(outRows))
	goMetrics(res, &countedMem, ops)
	if rec != nil {
		res.spans = rec.spans
	}
	res.finish()
	return res, nil
}
