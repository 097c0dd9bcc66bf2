package obs

import "sort"

// MetricSpec declares one metric. The table below is the only place a
// metric's name, type and help text are written down: call sites name a
// metric by its M* variable, the registry stores one cell per row and
// reads # HELP text from here, and docs/OBSERVABILITY.md is checked
// against it. Histograms use timeBuckets.
type MetricSpec struct {
	Name string
	Kind string // "counter", "gauge" or "histogram"
	Help string
}

// CounterID, GaugeID and HistogramID each name one row of the metric
// table: its index plus one, so the zero ID names no metric. The kind is
// in the type, so Observer.Count, Set and Observe each take only their
// own kind's rows.
type (
	CounterID   int
	GaugeID     int
	HistogramID int
)

var (
	metricTable []MetricSpec
	// exportOrder lists the table's rows grouped by kind (counters,
	// gauges, histograms), each group in name order: the order of the
	// Prometheus exposition.
	exportOrder []int
)

func init() {
	exportOrder = make([]int, len(metricTable))
	for i := range exportOrder {
		exportOrder[i] = i
	}
	sort.Slice(exportOrder, func(a, b int) bool {
		x, y := &metricTable[exportOrder[a]], &metricTable[exportOrder[b]]
		if x.Kind != y.Kind {
			return x.Kind < y.Kind // "counter" < "gauge" < "histogram"
		}
		return x.Name < y.Name
	})
}

// MetricTable returns every declared metric in declaration order.
func MetricTable() []MetricSpec { return append([]MetricSpec(nil), metricTable...) }

// declare appends one row and returns its ID.
func declare(kind, name, help string) int {
	metricTable = append(metricTable, MetricSpec{Name: name, Kind: kind, Help: help})
	return len(metricTable)
}

func counter(name, help string) CounterID     { return CounterID(declare("counter", name, help)) }
func gauge(name, help string) GaugeID         { return GaugeID(declare("gauge", name, help)) }
func histogram(name, help string) HistogramID { return HistogramID(declare("histogram", name, help)) }

// The metric table. Names follow saqp_<subsystem>_<name>[_<unit>] with a
// subsystem of cluster, sched, framework, serve, net or learn;
// counters end in _total (TestMetricTable enforces both).
// Every value is a count, a gauge or a simulated duration, so a seeded
// replay exports identical numbers.
var (
	// Cluster simulator lifecycle, moved by Emit through the event-kind table.
	MQueriesSubmitted   = counter("saqp_cluster_queries_submitted_total", "Queries submitted to a cluster simulator.")
	MQueriesCompleted   = counter("saqp_cluster_queries_completed_total", "Queries whose every job finished.")
	MQueryResponseSec   = histogram("saqp_cluster_query_response_seconds", "Simulated query response time, arrival to last job.")
	MJobsSubmitted      = counter("saqp_cluster_jobs_submitted_total", "MapReduce jobs submitted.")
	MJobsCompleted      = counter("saqp_cluster_jobs_completed_total", "MapReduce jobs finished.")
	MJobRuntimeSec      = histogram("saqp_cluster_job_runtime_seconds", "Simulated job runtime, submission to last task.")
	MMapTasksDone       = counter("saqp_cluster_map_tasks_completed_total", "Map task attempts that finished their task.")
	MReduceTasksDone    = counter("saqp_cluster_reduce_tasks_completed_total", "Reduce task attempts that finished their task.")
	MTaskRuntimeSec     = histogram("saqp_cluster_task_runtime_seconds", "Simulated slot occupancy of finished task attempts.")
	MReduceHoards       = counter("saqp_cluster_reduce_slowstart_hoards_total", "Reduces launched by slowstart before their job's maps finished.")
	MReducePreemptions  = counter("saqp_cluster_reduce_preemptions_total", "Hoarding reduces evicted for a shuffle-ready job.")
	MTaskFailures       = counter("saqp_cluster_task_failures_total", "Transient task-attempt failures injected by the fault plan.")
	MTaskRetries        = counter("saqp_cluster_task_retries_total", "Failed or crash-killed tasks re-queued.")
	MNodeCrashes        = counter("saqp_cluster_node_crashes_total", "Node outages injected by the fault plan.")
	MNodeRecoveries     = counter("saqp_cluster_node_recoveries_total", "Crashed nodes that rejoined.")
	MNodeBlacklists     = counter("saqp_cluster_node_blacklists_total", "Nodes excluded after repeated task failures.")
	MQueryFailures      = counter("saqp_cluster_query_failures_total", "Queries abandoned at the task attempt cap.")
	MSlowDispatches     = counter("saqp_cluster_slowdown_dispatches_total", "Tasks dispatched onto a node inside a slowdown window.")
	MSchedDecisions     = counter("saqp_sched_decisions_total", "PickJob calls on an instrumented scheduler.")
	MSchedIdleDecisions = counter("saqp_sched_idle_decisions_total", "PickJob calls that picked nothing.")

	// Facade operations.
	MCompiles    = counter("saqp_framework_compiles_total", "Framework.Compile calls.")
	MEstimates   = counter("saqp_framework_estimates_total", "Framework.Estimate calls.")
	MTrainings   = counter("saqp_framework_trainings_total", "Framework.Train calls.")
	MSimulations = counter("saqp_framework_simulations_total", "Framework.SimulateQuery runs.")

	// Serving engine. No shared timeline: each admitted query runs on its
	// own pool simulator, so per-request causality lives in the span trees.
	MServeSubmissions    = counter("saqp_serve_submissions_total", "Submissions entering the serving engine.")
	MServeCompletions    = counter("saqp_serve_completions_total", "Queries served to completion.")
	MServeCancellations  = counter("saqp_serve_cancellations_total", "Queries abandoned by context cancellation.")
	MServeRejections     = counter("saqp_serve_rejections_total", "Submissions refused by a full admission queue.")
	MServeErrors         = counter("saqp_serve_errors_total", "Submissions that failed parse, compile, estimation or their run.")
	MServeCacheHits      = counter("saqp_serve_cache_hits_total", "Plan-cache hits, including waiters on an in-flight compile.")
	MServeCacheMisses    = counter("saqp_serve_cache_misses_total", "Plan-cache misses.")
	MServeCacheEvictions = counter("saqp_serve_cache_evictions_total", "Plan-cache LRU evictions.")
	MServeQueueDepth     = gauge("saqp_serve_queue_depth", "SWRD admission queue depth.")
	MServeInflight       = gauge("saqp_serve_inflight_queries", "Queries running on pool simulators.")
	MServeSimResponseSec = histogram("saqp_serve_sim_response_seconds", "Simulated response time of served queries.")
	MServeAdmittedWRD    = histogram("saqp_serve_admitted_wrd_seconds", "Weighted Resource Demand of admitted queries.")

	// TCP frontend.
	MNetConnsAccepted  = counter("saqp_net_connections_accepted_total", "Connections accepted.")
	MNetConnsRejected  = counter("saqp_net_connections_rejected_total", "Connections refused by the connection limit.")
	MNetConnsClosed    = counter("saqp_net_connections_closed_total", "Connections ended.")
	MNetConnsActive    = gauge("saqp_net_connections_active", "Connections being served.")
	MNetCommands       = counter("saqp_net_commands_total", "Wire commands dispatched.")
	MNetParseErrors    = counter("saqp_net_parse_errors_total", "Malformed wire frames.")
	MNetBusyRejections = counter("saqp_net_busy_rejections_total", "Submissions refused with -BUSY.")
	MNetUnknownCmds    = counter("saqp_net_unknown_commands_total", "Command verbs the server does not speak.")

	// Online learning.
	MLearnJobSamples    = counter("saqp_learn_job_samples_total", "Job observations absorbed.")
	MLearnTaskSamples   = counter("saqp_learn_task_samples_total", "Task observations absorbed.")
	MLearnPromotions    = counter("saqp_learn_promotions_total", "Champion promotions.")
	MLearnModelVersion  = gauge("saqp_learn_model_version", "Serving champion version.")
	MLearnChampionErr   = gauge("saqp_learn_champion_window_rel_error", "Champion's windowed mean relative error.")
	MLearnChallengerErr = gauge("saqp_learn_challenger_window_rel_error", "Challenger's windowed mean relative error.")
)
