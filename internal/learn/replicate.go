package learn

import (
	"sync"

	"saqp/internal/obs"
	"saqp/internal/plan"
	"saqp/internal/predict"
)

// Source is the model-lifecycle seam the serving engine consumes: the
// champion to serve from and a feedback sink for observed job and task
// times. *Registry is the canonical implementation; Replica lets a
// sharded deployment serve a frozen copy of a coordinator's champion
// while funnelling feedback upstream, so promotion decisions stay
// centralized and every shard converges on the same version.
type Source interface {
	// Champion returns the serving champion as one consistent snapshot:
	// its version and its frozen job and task models (nil while cold).
	// A decision that needs more than one of the three takes them from
	// one call, never from two.
	Champion() (version int, jm *predict.JobModel, tm *predict.TaskModel)
	// ObserveJob feeds one completed job's observed execution time.
	ObserveJob(op plan.JobType, features []float64, observedSec float64)
	// ObserveTask feeds one completed task's observed execution time.
	ObserveTask(op plan.JobType, reduce bool, features []float64, observedSec float64)
}

// Registry is the canonical Source.
var _ Source = (*Registry)(nil)

// Champion returns the serving champion — version, job model, task
// model — under a single lock acquisition, so neither the engine nor a
// replica can observe a version from one promotion paired with models
// from another. The models are frozen and must not be mutated.
func (r *Registry) Champion() (version int, jm *predict.JobModel, tm *predict.TaskModel) {
	if r == nil {
		return 0, nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.version, r.champJob, r.champTask
}

// Replica is a shard-local copy of a coordinator Registry's champion.
// It serves Champion (and Version) from a frozen local snapshot and
// forwards every observation to the upstream registry, where the
// promotion rule runs; the snapshot only advances when Sync is called
// (the cluster's model fan-out), so the replica's version can lag the
// leader's — Lag exposes exactly that gap for the replication gauge.
// All methods are safe for concurrent use and on a nil receiver.
type Replica struct {
	mu       sync.Mutex
	upstream *Registry
	observer *obs.Observer

	version int
	jm      *predict.JobModel
	tm      *predict.TaskModel
}

// NewReplica builds a replica of upstream and performs the initial
// sync, so a freshly attached shard serves the leader's current
// champion rather than starting cold. observer may be nil.
func NewReplica(upstream *Registry, observer *obs.Observer) *Replica {
	r := &Replica{upstream: upstream, observer: observer}
	r.Sync()
	return r
}

// Sync pulls the upstream champion if its version moved and returns the
// replica's (possibly advanced) version. The pull is a pointer copy —
// champion models are frozen after promotion — so fan-out cost is
// independent of model size.
func (r *Replica) Sync() int {
	if r == nil {
		return 0
	}
	v, jm, tm := r.upstream.Champion()
	r.mu.Lock()
	defer r.mu.Unlock()
	if v != r.version {
		r.version, r.jm, r.tm = v, jm, tm
		r.observer.Count(obs.MLearnReplicaSyncs)
	}
	return r.version
}

// Lag returns how many promotions the replica is behind the leader.
func (r *Replica) Lag() int {
	if r == nil {
		return 0
	}
	lead := r.upstream.Version()
	r.mu.Lock()
	defer r.mu.Unlock()
	if lead < r.version {
		return 0
	}
	return lead - r.version
}

// Version returns the locally served champion version.
func (r *Replica) Version() int {
	v, _, _ := r.Champion()
	return v
}

// Champion returns the locally served snapshot: the leader's champion as
// of the last Sync, all nil/0 while the replica has only ever seen a
// cold leader.
func (r *Replica) Champion() (version int, jm *predict.JobModel, tm *predict.TaskModel) {
	if r == nil {
		return 0, nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.version, r.jm, r.tm
}

// ObserveJob forwards one job observation to the upstream registry,
// where the challenger learns and the promotion rule runs.
func (r *Replica) ObserveJob(op plan.JobType, features []float64, observedSec float64) {
	if r == nil {
		return
	}
	r.upstream.ObserveJob(op, features, observedSec)
}

// ObserveTask forwards one task observation to the upstream registry.
func (r *Replica) ObserveTask(op plan.JobType, reduce bool, features []float64, observedSec float64) {
	if r == nil {
		return
	}
	r.upstream.ObserveTask(op, reduce, features, observedSec)
}

// Replica is a Source: a shard engine plugs it in wherever a Registry
// would go.
var _ Source = (*Replica)(nil)
