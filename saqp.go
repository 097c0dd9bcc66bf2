package saqp

import (
	"errors"
	"fmt"
	"io"
	"os"

	"saqp/internal/catalog"
	"saqp/internal/cluster"
	"saqp/internal/core"
	"saqp/internal/dataset"
	"saqp/internal/mapreduce"
	"saqp/internal/obs"
	"saqp/internal/plan"
	"saqp/internal/predict"
	"saqp/internal/query"
	"saqp/internal/sched"
	"saqp/internal/selectivity"
	"saqp/internal/trace"
	"saqp/internal/workload"
)

// Re-exported core types. Aliases let callers outside this module use the
// full APIs of the internal subsystems through this package.
type (
	// Query is a parsed, resolvable analytic query AST.
	Query = query.Query
	// DAG is a compiled execution plan: a left-deep chain of MapReduce jobs.
	DAG = plan.DAG
	// Job is one MapReduce job in a plan.
	Job = plan.Job
	// QueryEstimate carries per-job selectivity and resource estimates.
	QueryEstimate = selectivity.QueryEstimate
	// JobEstimate is one job's estimated data flow (D_in, D_med, D_out...).
	JobEstimate = selectivity.JobEstimate
	// Catalog holds offline table statistics.
	Catalog = catalog.Catalog
	// JobModel is the fitted Eq. 8 job-time model.
	JobModel = predict.JobModel
	// TaskModel is the fitted Eq. 9 task-time model (and WRD provider).
	TaskModel = predict.TaskModel
	// Corpus is a training/evaluation query corpus.
	Corpus = workload.Corpus
	// Engine is the in-memory MapReduce execution engine.
	Engine = mapreduce.Engine
	// ClusterConfig sizes the discrete-event cluster simulator.
	ClusterConfig = cluster.Config
	// ClusterConfigError reports a ClusterConfig the simulator refuses
	// (see cluster.Config.Check), or one with Faults set given to
	// NewServer; NewServer and SimulateQueryConfig return it rather than
	// running the config.
	ClusterConfigError = cluster.ConfigError
	// TaskBoundError refuses a query whose estimate needs more than
	// cluster.MaxQueryTasks simulated tasks, has a non-finite byte
	// volume or (built by a caller) has a job with no map task group:
	// Server.Submit, the wire's SUBMIT and SimulateQueryConfig return it
	// rather than laying the query out, and WRD and PredictQuerySeconds
	// rather than pricing it.
	TaskBoundError = cluster.TaskBoundError
	// Schema describes one synthetic table.
	Schema = dataset.Schema
	// Observer is the deterministic observability hub: metrics registry,
	// sim-time trace sink and prediction-drift recorder.
	Observer = obs.Observer
	// TraceSink writes Chrome trace-event JSON (loadable in Perfetto).
	TraceSink = obs.TraceSink
	// RegistrySnapshot is a point-in-time metrics dump.
	RegistrySnapshot = obs.RegistrySnapshot
	// DriftSummary is one category's accuracy roll-up.
	DriftSummary = obs.DriftSummary
	// Span is one node of a request-scoped trace tree.
	Span = obs.Span
	// SpanTree is one served submission's complete span record.
	SpanTree = obs.SpanTree
	// SpanStore retains finished span trees in a bounded ring.
	SpanStore = obs.SpanStore
)

// NewObserver builds an observer with a fresh metrics registry and drift
// recorder; trace may be nil to disable tracing.
func NewObserver(trace *TraceSink) *Observer { return obs.New(trace) }

// NewTraceSink wraps w in a Chrome trace-event sink. Call Close to
// terminate the JSON array once the run finishes.
func NewTraceSink(w io.Writer) *TraceSink { return obs.NewTraceSink(w) }

// OpenObserver builds an observer backed by files: its trace, when
// tracePath is set, streams into that file as Chrome trace-event JSON
// (open it in ui.perfetto.dev). The returned finish ends the observation:
// it terminates the trace's JSON array, closes the file and, when
// promPath is set, writes the metrics registry there in Prometheus text
// format. Call it once on every path — also after a failed run, so what
// is left behind is a loadable trace rather than a truncated one.
func OpenObserver(tracePath, promPath string) (o *Observer, finish func() error, err error) {
	var traceFile *os.File
	var sink *TraceSink
	if tracePath != "" {
		if traceFile, err = os.Create(tracePath); err != nil {
			return nil, nil, err
		}
		sink = NewTraceSink(traceFile)
	}
	o = NewObserver(sink)
	return o, func() error {
		err := o.Close()
		if traceFile != nil {
			err = errors.Join(err, traceFile.Close())
		}
		if promPath == "" {
			return err
		}
		f, cerr := os.Create(promPath)
		if cerr != nil {
			return errors.Join(err, cerr)
		}
		return errors.Join(err, o.Metrics.WritePrometheus(f), f.Close())
	}, nil
}

// Scheduler names SimulateQuery accepts.
const (
	SchedulerHCS  = "HCS"
	SchedulerHFS  = "HFS"
	SchedulerSWRD = "SWRD"
)

// Options configures a Framework.
type Options struct {
	// ScaleFactor sizes the synthetic TPC-H/TPC-DS database the catalog
	// describes (1.0 ≈ 1 GB of TPC-H). Default 1.
	ScaleFactor float64
	// Observer receives framework metrics and, through SimulateQuery,
	// cluster traces and prediction drift. Nil disables observability at
	// zero cost.
	Observer *Observer
}

// Framework bundles the paper's three techniques behind one object:
// cross-layer semantics percolation (Compile keeps operators, predicates
// and dependencies attached to the DAG), selectivity estimation (Estimate),
// and multivariate time prediction (Train*/Predict*/WRD).
type Framework struct {
	Schemas   map[string]*dataset.Schema
	Catalog   *catalog.Catalog
	Estimator *selectivity.Estimator

	JobTime  *predict.JobModel
	TaskTime *predict.TaskModel

	// Obs, when non-nil, counts facade operations and instruments
	// SimulateQuery runs. Set from Options.Observer.
	Obs *Observer
}

// NewFramework builds a framework over analytically-derived statistics
// (catalog.DefaultBuckets per column) for the synthetic TPC-H/TPC-DS
// schemas at the configured scale factor.
func NewFramework(opts Options) (*Framework, error) {
	if opts.ScaleFactor <= 0 {
		opts.ScaleFactor = 1
	}
	cat := catalog.FromSchemas(dataset.Schemas(), opts.ScaleFactor, catalog.DefaultBuckets)
	return NewFrameworkFromCatalog(cat, opts), nil
}

// NewFrameworkFromCatalog builds a framework over caller-provided
// statistics (e.g. collected by scanning materialised relations).
func NewFrameworkFromCatalog(cat *catalog.Catalog, opts Options) *Framework {
	return &Framework{
		Schemas:   dataset.AllSchemas(),
		Catalog:   cat,
		Estimator: selectivity.NewEstimator(cat, selectivity.Config{}),
		Obs:       opts.Observer,
	}
}

// Compile parses HiveQL text, resolves it against the schemas, and compiles
// it to a DAG of MapReduce jobs. The DAG retains the query semantics —
// operators, predicates, join keys, projected columns — which is the
// "cross-layer semantics percolation" of paper Section 2.2.
func (f *Framework) Compile(sql string) (*DAG, error) {
	f.Obs.Count(obs.MCompiles)
	q, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	if err := query.Resolve(q, f.Schemas); err != nil {
		return nil, err
	}
	return plan.Compile(q)
}

// Estimate runs semantics-aware selectivity estimation over a compiled DAG
// (paper Section 3): per-job IS/FS, D_in/D_med/D_out, task counts, and the
// join balance ratio P.
func (f *Framework) Estimate(d *DAG) (*QueryEstimate, error) {
	f.Obs.Count(obs.MEstimates)
	return f.Estimator.EstimateQuery(d)
}

// statsFingerprint is the serving stack's CatalogFingerprint. The
// "/exact" suffix once named a statistics tier; only one exists now, but
// the bytes stay because trace ids, the pinned TPC-H fingerprints and
// the golden transcripts all hash this string through serve.CacheKey.
func (f *Framework) statsFingerprint() string {
	return f.Catalog.Fingerprint() + "/exact"
}

// Train fits the Eq. 8 job model and Eq. 9 task models from a corpus.
func (f *Framework) Train(c *Corpus) error {
	f.Obs.Count(obs.MTrainings)
	jm, err := predict.FitJobModel(c.JobSamples)
	if err != nil {
		return fmt.Errorf("saqp: training job model: %w", err)
	}
	tm, err := predict.FitTaskModel(c.TaskSamples)
	if err != nil {
		return fmt.Errorf("saqp: training task model: %w", err)
	}
	f.JobTime, f.TaskTime = jm, tm
	return nil
}

// TrainDefault builds a modest synthetic corpus (TPC-H/DS queries, 1–100 GB
// inputs, simulated execution) and trains the models on it. For the paper's
// full 1,000-query corpus use workload.BuildCorpus + Train.
func (f *Framework) TrainDefault() error {
	cfg := workload.DefaultCorpusConfig()
	cfg.NumQueries = 200
	c, err := workload.BuildCorpus(cfg)
	if err != nil {
		return err
	}
	return f.Train(c)
}

// SaveModels serialises the trained models to JSON for reuse across runs.
func (f *Framework) SaveModels(description string) ([]byte, error) {
	if f.JobTime == nil || f.TaskTime == nil {
		return nil, errNotTrained
	}
	return predict.SaveModels(f.JobTime, f.TaskTime, description)
}

// LoadModels installs previously saved model coefficients.
func (f *Framework) LoadModels(data []byte) error {
	jm, tm, err := predict.LoadModels(data)
	if err != nil {
		return err
	}
	f.JobTime, f.TaskTime = jm, tm
	return nil
}

// errNotTrained is returned by prediction methods before Train.
var errNotTrained = fmt.Errorf("saqp: models not trained; call Train or TrainDefault first")

// PredictJobSeconds predicts one job's execution time via Eq. 8.
func (f *Framework) PredictJobSeconds(je *JobEstimate) (float64, error) {
	if f.JobTime == nil {
		return 0, errNotTrained
	}
	return f.JobTime.PredictJob(je), nil
}

// PredictQuerySeconds predicts a whole query's response time (run alone on
// the default cluster) via the task model composed along the DAG's critical
// path (Section 5.4). It refuses what SimulateQuery refuses, with the same
// *TaskBoundError: the estimate's task groups are what it prices.
func (f *Framework) PredictQuerySeconds(qe *QueryEstimate) (float64, error) {
	if f.TaskTime == nil {
		return 0, errNotTrained
	}
	if err := cluster.CheckTaskBound(qe); err != nil {
		return 0, err
	}
	slots, ov := core.Capacity(cluster.DefaultConfig())
	return f.TaskTime.PredictQuery(qe, slots, ov), nil
}

// WRD computes the query's Weighted Resource Demand (Eq. 10) — the metric
// the SWRD scheduler minimises, and the sum of the per-task predictions
// SimulateQuery lays out. It refuses what SimulateQuery refuses, with the
// same *TaskBoundError.
func (f *Framework) WRD(qe *QueryEstimate) (float64, error) {
	if f.TaskTime == nil {
		return 0, errNotTrained
	}
	if err := cluster.CheckTaskBound(qe); err != nil {
		return 0, err
	}
	return f.TaskTime.WRD(qe), nil
}

// SimulateQuery runs an estimated query alone on the default simulated
// cluster and returns its response time in seconds. scheduler only names
// the policy the run's decisions are labelled with: a compiled plan is a
// chain, so a query run alone schedules identically under every policy.
// When an observer is attached (Options.Observer), the run is fully
// instrumented: query→job→task lifecycle trace spans, cluster metrics,
// scheduler decisions, and — if the models are trained — Eq. 8 per-job
// prediction drift. Task durations are drawn from the hidden
// ground-truth cost model seeded by seed; per-task predictions come from
// the trained Eq. 9 task model, or a constant baseline before training.
func (f *Framework) SimulateQuery(id string, qe *QueryEstimate, scheduler string, seed uint64) (float64, error) {
	return f.SimulateQueryConfig(id, qe, scheduler, seed, cluster.DefaultConfig())
}

// SimulateQueryConfig is SimulateQuery on a caller-supplied cluster
// config — the hook behind cmd/saqp's fault-injection flags: set
// cc.Faults to replay the query under a deterministic fault plan. A
// failed query (task attempt cap exhausted under the plan) returns its
// *TaskFailedError, and a query over the task bound its *TaskBoundError,
// as does a caller-built estimate with a job that has no map task group:
// an estimate's task groups are the only layout the simulator reads.
func (f *Framework) SimulateQueryConfig(id string, qe *QueryEstimate, scheduler string, seed uint64, cc ClusterConfig) (float64, error) {
	pol, err := sched.ByName(scheduler)
	if err != nil {
		return 0, fmt.Errorf("saqp: %w", err)
	}
	if err := cluster.CheckTaskBound(qe); err != nil {
		return 0, err
	}
	f.Obs.Count(obs.MSimulations)
	// The query is its own oracle, so the trained task model predicts its
	// tasks unscaled.
	var pred cluster.TaskTimePredictor = cluster.ConstantPredictor(1)
	if f.TaskTime != nil {
		pred = f.TaskTime
	}
	l := cluster.GetLone()
	defer cluster.PutLone(l)
	q, err := l.Run(nil, cc, pol, id, qe, trace.NewDefaultCostModel(seed), pred, f.Obs)
	if err != nil {
		return 0, err
	}
	core.RecordJobDrift(f.Obs, f.JobTime, qe, q)
	return q.ResponseTime(), nil
}

// TPCHQuery returns one of the canonical TPC-H-derived queries ("q1",
// "q3", "q6", "q11", "q14", "q17", "q19"), parsed and resolved. Q14 and
// Q17 are the queries of the paper's motivating experiment; Q11 is its
// selectivity walk-through.
func TPCHQuery(name string) (*Query, error) { return workload.TPCHQuery(name) }

// TPCHNames lists the canonical TPC-H-derived query names, sorted.
func TPCHNames() []string { return workload.TPCHNames() }

// TPCHSQL returns the named canonical query's HiveQL text — the form
// Server.Submit accepts.
func TPCHSQL(name string) (string, error) { return workload.TPCHSQL(name) }

// NewEngine builds an execution engine with relations for every schema
// materialised at the given laptop-scale factor. The engine actually runs
// queries, providing ground-truth sizes to compare against Estimate.
func NewEngine(sf float64, seed uint64) *Engine {
	e := mapreduce.New(mapreduce.Config{BlockSize: 1 << 20})
	for _, s := range dataset.Schemas() {
		e.Register(dataset.Generate(s, sf, seed))
	}
	return e
}
