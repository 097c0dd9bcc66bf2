package saqp

import (
	"context"
	"errors"
	"fmt"

	"saqp/internal/learn"
	"saqp/internal/net"
	"saqp/internal/net/proto"
	"saqp/internal/serve"
	"saqp/internal/shardserve"
)

// Sharded-serving re-exports, so callers stay on the facade.
type (
	// ClusterRole names one instance of a shard (primary or replica).
	ClusterRole = shardserve.Role
	// ClusterEvent is one sentinel state transition in the failover log.
	ClusterEvent = shardserve.Event
	// ClusterStatus is a point-in-time coordinator snapshot.
	ClusterStatus = shardserve.Status
	// ClusterRouteInfo is one query's slot/shard routing decision.
	ClusterRouteInfo = shardserve.RouteInfo
	// ClusterPending is one accepted cluster submission awaiting
	// completion.
	ClusterPending = serve.Pending
	// NetClusterClient is the redirect-following cluster wire client;
	// see DialNetCluster.
	NetClusterClient = net.ClusterClient
	// NetClusterConfig configures a NetClusterClient.
	NetClusterConfig = net.ClusterClientConfig
	// NetClusterTicket names one wire submission and its admitting
	// instance.
	NetClusterTicket = net.ClusterTicket
	// NetMovedError is a -MOVED cluster redirect decoded from the wire.
	NetMovedError = net.MovedError
)

// Cluster event kinds, re-exported for event-log consumers.
const (
	// ClusterEventCrash marks a fault-plan window taking a primary down.
	ClusterEventCrash = shardserve.EventCrash
	// ClusterEventRejoin marks a crashed instance returning as standby.
	ClusterEventRejoin = shardserve.EventRejoin
	// ClusterEventVote marks one sentinel voting a shard down.
	ClusterEventVote = shardserve.EventVote
	// ClusterEventRecover marks a sentinel retracting its vote.
	ClusterEventRecover = shardserve.EventRecover
	// ClusterEventFailover marks a quorum promoting a replica.
	ClusterEventFailover = shardserve.EventFailover
)

// Cluster role values.
const (
	// ClusterPrimary serves a shard's slots until failover.
	ClusterPrimary = shardserve.RolePrimary
	// ClusterReplica is the standby the sentinel quorum promotes.
	ClusterReplica = shardserve.RoleReplica
)

// DialNetCluster connects a redirect-following wire client to a
// sharded cluster.
func DialNetCluster(cfg NetClusterConfig) (*NetClusterClient, error) {
	return net.DialCluster(cfg)
}

// AsNetMoved unwraps a -MOVED redirect from a wire error.
func AsNetMoved(err error) (*NetMovedError, bool) { return net.AsMoved(err) }

// ClusterOptions configures a ClusterServer.
type ClusterOptions struct {
	// Shards is the number of primary/replica engine pairs. Default 4.
	Shards int
	// Slots sizes the hash-slot space. Default shardserve.DefaultSlots.
	Slots int
	// Workers is each engine's simulator pool size. Default 1, so an
	// n-shard cluster uses n-fold the single-server worker parallelism.
	Workers int
	// CacheSize bounds each engine's plan/estimate cache. Default 64.
	CacheSize int
	// QueueCap bounds each engine's admission queue. 0 means unbounded.
	QueueCap int
	// Cluster sizes each engine's pool simulators; the zero value means
	// the paper's 9-node default.
	Cluster ClusterConfig
	// Scheduler names the slot policy; empty means SchedulerSWRD.
	Scheduler string
	// Listen starts one TCP frontend per instance (primary and replica),
	// each on an ephemeral port, serving the cluster wire protocol with
	// -MOVED redirects and the CLUSTER verb.
	Listen bool
	// Advertise, when set, pins the addresses instances announce in
	// -MOVED redirects and CLUSTER output instead of their actual listen
	// addresses, in shard-major primary-then-replica order (2*Shards
	// entries). Golden transcripts use this to stay byte-stable across
	// ephemeral ports; pair it with NetClusterConfig.Resolve on the
	// client side.
	Advertise []string
	// Sentinels is the sentinel count. Default 3.
	Sentinels int
	// Quorum is the down-votes needed to fail over. Default majority.
	Quorum int
	// HeartbeatSec is the simulated seconds per Tick. Default 1.
	HeartbeatSec float64
	// MissThreshold is the consecutive missed heartbeats before one
	// sentinel votes a shard down. Default 3.
	MissThreshold int
	// FaultPlan supplies crash windows: plan node i takes down shard
	// i's primary. Nil means no crashes.
	FaultPlan *FaultPlan
	// SentinelSeed jitters the sentinels' heartbeat phases. Default 1.
	SentinelSeed uint64
}

// ClusterServer is the facade's sharded serving cluster: Shards
// primary/replica engine pairs behind a fingerprint-routing
// coordinator, a replicated online-learning champion, and a
// tick-driven sentinel failover loop. See internal/shardserve for the
// coordinator and docs/CLUSTER.md for the protocol.
type ClusterServer struct {
	f        *Framework
	cluster  *shardserve.Cluster
	registry *Learner
	opts     ClusterOptions
	nets     []*NetServer // shard-major, primary then replica; nil entries when !Listen
}

// clusterEngineBackend adapts a serve.Engine to the serve.Backend seam
// the coordinator routes into.
type clusterEngineBackend struct{ eng *serve.Engine }

// Submit admits one query on the wrapped engine.
func (b clusterEngineBackend) Submit(ctx context.Context, sql string, seed uint64) (serve.Pending, error) {
	t, err := b.eng.Submit(ctx, sql, seed)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Stats snapshots the wrapped engine's counters.
func (b clusterEngineBackend) Stats() ServeStats { return b.eng.Stats() }

// Close drains the wrapped engine.
func (b clusterEngineBackend) Close() error { return b.eng.Close() }

// clusterNetBackend adapts one instance's view of the coordinator to
// the serve.Backend seam the TCP frontend submits into: submissions
// route through the coordinator (so a frontend whose instance just
// failed over parks and completes on the promotion), stats are the
// instance's own engine.
type clusterNetBackend struct {
	c     *shardserve.Cluster
	shard int
	role  ClusterRole
}

// Submit admits one query on the instance's shard via the coordinator.
func (b clusterNetBackend) Submit(ctx context.Context, sql string, seed uint64) (serve.Pending, error) {
	p, err := b.c.SubmitShard(ctx, b.shard, sql, seed)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Stats snapshots the instance's engine counters.
func (b clusterNetBackend) Stats() ServeStats { return b.c.InstanceStats(b.shard, b.role) }

// Close does nothing: the coordinator owns the instance's engine and
// drains it when the cluster closes.
func (b clusterNetBackend) Close() error { return nil }

// NewClusterServer builds and (optionally) exposes a sharded serving
// cluster over the framework's estimator and trained models. Every
// instance gets its own engine and its own model replica of one shared
// coordinator Learner, so feedback from any shard trains one champion
// that Tick fans back out to all of them.
func (f *Framework) NewClusterServer(opts ClusterOptions) (*ClusterServer, error) {
	if opts.Shards <= 0 {
		opts.Shards = 4
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.CacheSize <= 0 {
		opts.CacheSize = 64
	}
	if len(opts.Advertise) > 0 && len(opts.Advertise) != 2*opts.Shards {
		return nil, fmt.Errorf("saqp: ClusterOptions.Advertise needs %d entries (2 per shard), got %d",
			2*opts.Shards, len(opts.Advertise))
	}
	name := opts.Scheduler
	if name == "" {
		name = SchedulerSWRD
	}
	pol, err := schedulerByName(name)
	if err != nil {
		return nil, err
	}
	registry := f.NewLearner(LearnerConfig{})

	specs := make([]shardserve.ShardSpec, opts.Shards)
	engines := make([]*serve.Engine, 0, 2*opts.Shards)
	closeEngines := func() {
		for _, eng := range engines {
			_ = eng.Close() //lint:allow saqpvet/errdrop construction failed; the original error is the one to surface
		}
	}
	for shard := 0; shard < opts.Shards; shard++ {
		var insts [2]shardserve.Instance
		for role := 0; role < 2; role++ {
			rep := learn.NewReplica(registry, f.Obs)
			eng, err := serve.New(serve.Config{
				Schemas:            f.Schemas,
				Estimator:          f.Estimator,
				CatalogFingerprint: f.statsFingerprint(),
				TaskModel:          f.TaskTime,
				JobModel:           f.JobTime,
				Cluster:            opts.Cluster,
				Scheduler:          pol,
				Workers:            opts.Workers,
				CacheSize:          opts.CacheSize,
				QueueCap:           opts.QueueCap,
				Observer:           f.Obs,
				Learner:            rep,
			})
			if err != nil {
				closeEngines()
				return nil, err
			}
			engines = append(engines, eng)
			insts[role] = shardserve.Instance{Backend: clusterEngineBackend{eng: eng}, Model: rep}
		}
		specs[shard] = shardserve.ShardSpec{Primary: insts[0], Replica: insts[1]}
	}

	cluster, err := shardserve.NewCluster(shardserve.Config{
		Shards:             specs,
		Slots:              opts.Slots,
		CatalogFingerprint: f.statsFingerprint(),
		Registry:           registry,
		Observer:           f.Obs,
		Sentinel: shardserve.SentinelConfig{
			Sentinels:     opts.Sentinels,
			Quorum:        opts.Quorum,
			HeartbeatSec:  opts.HeartbeatSec,
			MissThreshold: opts.MissThreshold,
			Plan:          opts.FaultPlan,
			Seed:          opts.SentinelSeed,
		},
	})
	if err != nil {
		closeEngines()
		return nil, err
	}

	cs := &ClusterServer{f: f, cluster: cluster, registry: registry, opts: opts}
	if !opts.Listen {
		return cs, nil
	}
	cs.nets = make([]*NetServer, 2*opts.Shards)
	for shard := 0; shard < opts.Shards; shard++ {
		for role := ClusterPrimary; role <= ClusterReplica; role++ {
			idx := 2*shard + int(role)
			srv, err := net.Start(net.Config{
				Addr:        "127.0.0.1:0",
				Backend:     clusterNetBackend{c: cluster, shard: shard, role: role},
				Limits:      proto.DefaultLimits(),
				Explain:     cs.explainFor(shard, role),
				MetricsText: f.metricsText,
				Route:       cs.routeFor(shard, role),
				ClusterInfo: cluster.Info,
				Observer:    f.Obs,
			})
			if err != nil {
				_ = cs.Close() //lint:allow saqpvet/errdrop construction failed; the listen error is the one to surface
				return nil, err
			}
			cs.nets[idx] = srv
			addr := srv.Addr()
			if len(opts.Advertise) > 0 {
				addr = opts.Advertise[idx]
			}
			cluster.SetAddr(shard, role, addr)
		}
	}
	return cs, nil
}

// routeFor builds one instance's cluster routing gate: a query is
// local exactly when this instance is the active owner of its slot.
func (cs *ClusterServer) routeFor(shard int, role ClusterRole) func(sql string) (int, string, bool, error) {
	return func(sql string) (int, string, bool, error) {
		ri, err := cs.cluster.Route(sql)
		if err != nil {
			return 0, "", false, err
		}
		local := ri.Shard == shard && cs.cluster.ActiveRole(shard) == role
		return ri.Slot, ri.Addr, local, nil
	}
}

// explainFor builds one instance's EXPLAIN: the framework's plan
// description plus the executing shard's attribution line (shard id,
// role, and the model version this instance serves predictions from).
func (cs *ClusterServer) explainFor(shard int, role ClusterRole) func(sql string) ([]string, error) {
	return func(sql string) ([]string, error) {
		lines, err := cs.f.explainLines(sql)
		if err != nil {
			return nil, err
		}
		st := cs.cluster.Status()
		version := 0
		for _, is := range st.Instances {
			if is.Shard == shard && is.Role == role {
				version = is.ModelVersion
			}
		}
		return append(lines, fmt.Sprintf("shard=%d role=%s model_version=%d", shard, role, version)), nil
	}
}

// Submit routes one query by its semantics-aware fingerprint and
// admits it on the owning shard's active instance.
func (cs *ClusterServer) Submit(ctx context.Context, sql string, seed uint64) (ClusterPending, error) {
	return cs.cluster.Submit(ctx, sql, seed)
}

// Route resolves a query's slot, owning shard, and active address
// without admitting it.
func (cs *ClusterServer) Route(sql string) (ClusterRouteInfo, error) { return cs.cluster.Route(sql) }

// Tick advances the sentinel loop one heartbeat (crash actuation,
// heartbeats, quorum failover, model fan-out) and returns the events
// it produced. Callers own the cadence: tests tick deterministically,
// cmd/saqp ticks on a wall-clock ticker.
func (cs *ClusterServer) Tick() []ClusterEvent { return cs.cluster.Tick() }

// Events returns the full failover event log since construction.
func (cs *ClusterServer) Events() []ClusterEvent { return cs.cluster.Events() }

// EventsJSON renders the event log as newline-delimited JSON —
// byte-identical across same-seed replays.
func (cs *ClusterServer) EventsJSON() []byte { return cs.cluster.EventsJSON() }

// Status snapshots the coordinator's topology and replication state.
func (cs *ClusterServer) Status() ClusterStatus { return cs.cluster.Status() }

// Info renders the CLUSTER verb's line-oriented topology snapshot.
func (cs *ClusterServer) Info() []string { return cs.cluster.Info() }

// Stats aggregates every instance's engine counters.
func (cs *ClusterServer) Stats() ServeStats { return cs.cluster.Stats() }

// Learner returns the coordinator's model-lifecycle registry — the
// replication leader every instance's replica syncs from.
func (cs *ClusterServer) Learner() *Learner { return cs.registry }

// NetAddr returns one instance's actual TCP listen address, or ""
// when the cluster is not listening.
func (cs *ClusterServer) NetAddr(shard int, role ClusterRole) string {
	if cs.nets == nil {
		return ""
	}
	srv := cs.nets[2*shard+int(role)]
	if srv == nil {
		return ""
	}
	return srv.Addr()
}

// Close shuts the frontends down, then drains every engine.
func (cs *ClusterServer) Close() error {
	var err error
	for _, srv := range cs.nets {
		if srv != nil {
			err = errors.Join(err, srv.Close())
		}
	}
	return errors.Join(err, cs.cluster.Close())
}
