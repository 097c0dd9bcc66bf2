// Command saqp compiles a HiveQL-style query against the synthetic
// TPC-H/TPC-DS schemas, prints its MapReduce plan, the semantics-aware
// selectivity estimates (paper Section 3), and — after training the
// multivariate models on a synthetic corpus — the predicted execution time
// and Weighted Resource Demand (Section 4).
//
// Usage:
//
//	saqp -query "SELECT c_name, count(*) FROM customer JOIN orders ON o_custkey = c_custkey GROUP BY c_name"
//	saqp -sf 10 -train -query "..."
//
// With -trace and/or -metrics the query is additionally executed alone
// on the simulated cluster, producing a Chrome trace-event JSON (open in
// Perfetto: ui.perfetto.dev) and a Prometheus text-format metrics dump.
// Both outputs are deterministic for a fixed -seed.
//
//	saqp -query "..." -trace run.trace.json -metrics run.prom
//
// With -admin the query is served through the concurrent serving engine
// instead, and the process stays up hosting the live introspection
// endpoint (/metrics, /spans, /drift, /statz, /debug/pprof) until
// SIGINT/SIGTERM:
//
//	saqp -query "..." -admin :8080
//	curl localhost:8080/metrics
//	curl localhost:8080/spans
//
// With -listen the process hosts the TCP query frontend instead: a
// RESP-style protocol speaking SUBMIT / WAIT / STATS / EXPLAIN /
// METRICS / PING / QUIT (grammar in docs/PROTOCOL.md), serving until
// SIGINT/SIGTERM with a graceful drain. -query becomes optional:
//
//	saqp -train -listen :6380
//	printf 'SUBMIT SELECT COUNT(*) FROM lineitem\r\n' | nc localhost 6380
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"syscall"
	"text/tabwriter"
	"time"

	"saqp"
	"saqp/internal/workload"
)

func main() {
	var (
		sql       = flag.String("query", "", "HiveQL query text (required)")
		sf        = flag.Float64("sf", 10, "scale factor of the synthetic database (1 ≈ 1 GB TPC-H)")
		train     = flag.Bool("train", false, "train the time models on a synthetic corpus (slower; enables predictions)")
		queries   = flag.Int("train-queries", 160, "corpus size when -train is set")
		models    = flag.String("models", "", "path to a trained-models JSON bundle: loaded if it exists, written after -train otherwise")
		traceOut  = flag.String("trace", "", "simulate the query and write a Chrome trace-event JSON (Perfetto-loadable) to this file")
		promOut   = flag.String("metrics", "", "simulate the query and write Prometheus text-format metrics to this file")
		seed      = flag.Uint64("seed", 2018, "cost-model seed for the simulated run")
		faults    = flag.Bool("faults", false, "inject the default deterministic fault plan into the simulated run (crashes, slowdowns, transient task failures)")
		faultSeed = flag.Uint64("fault-seed", 1, "seed of the fault plan used with -faults")
		admin     = flag.String("admin", "", "serve the query through the serving engine and host the live introspection endpoint on this address (host:port) until SIGINT/SIGTERM")
		listen    = flag.String("listen", "", "host the TCP query frontend on this address (host:port) until SIGINT/SIGTERM; RESP-style SUBMIT/WAIT/STATS/EXPLAIN/METRICS/PING/QUIT, makes -query optional")
	)
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(),
			"saqp — semantics-aware analytic-query prediction: compile a HiveQL query,\n"+
				"estimate selectivities, predict execution time/WRD, and optionally simulate,\n"+
				"serve via the admin endpoint (-admin), or host the TCP frontend (-listen).\n\n"+
				"Usage: saqp -query \"SELECT ...\" [flags]   or   saqp -listen :6380 [flags]\n\nFlags:")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *sql == "" && *listen == "" {
		fmt.Fprintln(os.Stderr, "saqp: -query is required (unless -listen is set)")
		flag.Usage()
		os.Exit(2)
	}
	var fp *saqp.FaultPlan
	if *faults {
		fp = saqp.NewFaultPlan(saqp.DefaultFaultSpec(*faultSeed))
	}
	if err := run(*sql, *sf, *train, *queries, *models, *traceOut, *promOut, *seed, fp, *admin, *listen); err != nil {
		fmt.Fprintln(os.Stderr, "saqp:", err)
		os.Exit(1)
	}
}

func run(sql string, sf float64, train bool, trainQueries int, modelsPath,
	traceOut, promOut string, seed uint64, fp *saqp.FaultPlan, admin, listen string) error {
	var o *saqp.Observer
	finish := func() error { return nil }
	if traceOut != "" || promOut != "" {
		var err error
		if o, finish, err = saqp.OpenObserver(traceOut, promOut); err != nil {
			return err
		}
	}
	fw, err := saqp.NewFramework(saqp.Options{ScaleFactor: sf, Observer: o})
	if err == nil {
		err = oneShot(fw, sql, train, trainQueries, modelsPath, seed, fp)
	}
	// The observer's files are finished before any hosting starts, and
	// also when the one-shot part failed: the trace stays loadable.
	if ferr := finish(); err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	if traceOut != "" {
		fmt.Printf("Wrote trace to %s (open in ui.perfetto.dev)\n", traceOut)
	}
	if promOut != "" {
		fmt.Printf("Wrote metrics to %s\n", promOut)
	}
	if admin == "" && listen == "" {
		return nil
	}
	return host(fw, sql, seed, admin, listen)
}

// oneShot is everything before hosting: load or train the models and,
// given a query, print its report.
func oneShot(fw *saqp.Framework, sql string, train bool, trainQueries int, modelsPath string,
	seed uint64, fp *saqp.FaultPlan) error {
	if modelsPath != "" {
		// Only an absent file means "train and write"; any other read
		// error would otherwise run untrained without a word.
		data, err := os.ReadFile(modelsPath)
		switch {
		case err == nil:
			if err := fw.LoadModels(data); err != nil {
				return fmt.Errorf("loading %s: %w", modelsPath, err)
			}
			fmt.Printf("Loaded trained models from %s\n", modelsPath)
			train = false
		case !errors.Is(err, fs.ErrNotExist):
			return fmt.Errorf("reading models: %w", err)
		}
	}
	if sql != "" {
		return report(fw, sql, train, trainQueries, modelsPath, seed, fp)
	}
	if train {
		// Hosting without a one-shot report: straight to serving.
		return trainModels(fw, trainQueries, modelsPath)
	}
	return nil
}

// report prints the one-shot answer for sql: plan, selectivity table,
// and — with models loaded or trained — predicted time and WRD, then
// the simulated run when an observer or fault plan asks for one.
func report(fw *saqp.Framework, sql string, train bool, trainQueries int, modelsPath string,
	seed uint64, fp *saqp.FaultPlan) error {
	dag, err := fw.Compile(sql)
	if err != nil {
		return err
	}
	fmt.Printf("Plan (%d MapReduce jobs):\n", len(dag.Jobs))
	for _, j := range dag.Jobs {
		fmt.Printf("  %s\n", j.Label())
	}

	est, err := fw.Estimate(dag)
	if err != nil {
		return err
	}
	fmt.Println("\nSelectivity estimation:")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  job\ttype\tD_in\tD_med\tD_out\tIS\tFS\trows out\tmaps\treds")
	for _, je := range est.Jobs {
		fmt.Fprintf(w, "  %s\t%s\t%s\t%s\t%s\t%.4f\t%.4f\t%.0f\t%d\t%d\n",
			je.Job.ID, je.Job.Type, gb(je.InBytes), gb(je.MedBytes), gb(je.OutBytes),
			je.IS, je.FS, je.OutRows, je.NumMaps, je.NumReduces)
	}
	w.Flush()

	if train {
		if err := trainModels(fw, trainQueries, modelsPath); err != nil {
			return err
		}
	}
	if fw.TaskTime == nil {
		fmt.Println("\n(run with -train to predict execution time and WRD)")
		return simulate(fw, est, seed, fp)
	}
	secs, err := fw.PredictQuerySeconds(est)
	if err != nil {
		return err
	}
	wrd, err := fw.WRD(est)
	if err != nil {
		return err
	}
	fmt.Printf("\nPredicted response time (alone on 9-node cluster): %.1f s\n", secs)
	fmt.Printf("Weighted Resource Demand (Eq. 10):                 %.0f task-seconds\n", wrd)
	for _, je := range est.Jobs {
		js, err := fw.PredictJobSeconds(je)
		if err != nil {
			return err
		}
		fmt.Printf("  %s predicted job time (Eq. 8): %.1f s\n", je.Job.ID, js)
	}
	return simulate(fw, est, seed, fp)
}

// trainModels trains fw (Framework.Train) on 3/4 of a synthetic corpus
// and saves the models when a models path is given.
func trainModels(fw *saqp.Framework, trainQueries int, modelsPath string) error {
	fmt.Printf("\nTraining time models on %d synthetic queries...\n", trainQueries)
	cfg := workload.DefaultCorpusConfig()
	cfg.NumQueries = trainQueries
	corpus, err := workload.BuildCorpus(cfg)
	if err != nil {
		return err
	}
	train, _ := corpus.Split(0.75)
	if err := fw.Train(train); err != nil || modelsPath == "" {
		return err
	}
	data, err := fw.SaveModels("trained by cmd/saqp")
	if err != nil {
		return err
	}
	if err := os.WriteFile(modelsPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("Saved trained models to %s\n", modelsPath)
	return nil
}

// drainTimeout bounds the graceful drain after SIGINT/SIGTERM before
// remaining connections are torn down.
const drainTimeout = 30 * time.Second

// host is the one hosting loop behind -admin and -listen: build the
// server, print its banner, wait for SIGINT/SIGTERM, drain the socket
// within drainTimeout, close. -admin and -listen together host one
// server with both endpoints.
func host(fw *saqp.Framework, sql string, seed uint64, admin, listen string) error {
	// Registered before any banner, so a supervisor that signals as soon
	// as it reads one always gets the drain.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	srv, err := fw.NewServer(saqp.ServerOptions{AdminAddr: admin})
	if err != nil {
		return err
	}
	if admin != "" {
		if err := serveOnce(srv, sql, seed); err != nil {
			return errors.Join(err, srv.Close())
		}
	}
	drain := func(context.Context) error { return nil } // -admin alone has no socket to drain
	if listen != "" {
		ns, err := fw.NewNetServer(srv, saqp.NetOptions{Addr: listen})
		if err != nil {
			return errors.Join(err, srv.Close())
		}
		drain = ns.Shutdown
		mode := "untrained (FIFO admission)"
		if fw.TaskTime != nil {
			mode = "trained (WRD admission)"
		}
		fmt.Printf("\nTCP query frontend live at %s, models %s\n", ns.Addr(), mode)
		fmt.Println("Commands (inline or RESP arrays, CRLF-terminated): SUBMIT / WAIT / STATS / EXPLAIN / METRICS / PING / QUIT.")
	}
	fmt.Println("Ctrl-C (SIGINT/SIGTERM) to drain and shut down.")

	<-sig
	signal.Stop(sig) // a second Ctrl-C kills the process the default way
	fmt.Println("shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "saqp: drain incomplete:", err)
	}
	return srv.Close()
}

// serveOnce serves the -admin query through the engine (tracing is on,
// so the endpoints have substance) and prints where the introspection
// endpoint lives.
func serveOnce(srv *saqp.Server, sql string, seed uint64) error {
	ctx := context.Background()
	tk, err := srv.Submit(ctx, sql, seed)
	if err != nil {
		return err
	}
	res, err := tk.Wait(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("\nServed query through the engine: %.1f s simulated\n", res.SimSec)
	fmt.Printf("admin endpoint live at %s — try:\n", srv.AdminURL())
	fmt.Printf("  curl %s/metrics\n  curl %s/spans\n", srv.AdminURL(), srv.AdminURL())
	return nil
}

// simulate runs the estimated query on the simulated cluster when an
// observer was requested or a fault plan is set.
func simulate(fw *saqp.Framework, est *saqp.QueryEstimate, seed uint64, fp *saqp.FaultPlan) error {
	if fw.Obs == nil && fp == nil {
		return nil
	}
	cc := saqp.DefaultClusterConfig()
	cc.Faults = fp
	secs, err := fw.SimulateQueryConfig("q1", est, saqp.SchedulerSWRD, seed, cc)
	if err != nil {
		return err
	}
	mode := ""
	if fp != nil {
		mode = ", faults injected"
	}
	fmt.Printf("\nSimulated response time (alone%s): %.1f s\n", mode, secs)
	return nil
}

func gb(b float64) string {
	switch {
	case b >= 1e9:
		return fmt.Sprintf("%.2fGB", b/1e9)
	case b >= 1e6:
		return fmt.Sprintf("%.1fMB", b/1e6)
	case b >= 1e3:
		return fmt.Sprintf("%.0fKB", b/1e3)
	}
	return fmt.Sprintf("%.0fB", b)
}
