package saqp

import (
	"context"
	"errors"
	"fmt"

	"saqp/internal/learn"
	"saqp/internal/net"
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
	cluster  *shardserve.Cluster
	registry *Learner
	insts    []*Server    // shard-major, primary then replica
	nets     []*NetServer // one per instance, same order; empty when !Listen
}

// NewClusterServer builds and (optionally) exposes a sharded serving
// cluster over the framework's estimator and trained models. Every
// instance is a Server of its own (built as NewServer builds one) with
// its own model replica of one shared coordinator Learner, so feedback
// from any shard trains one champion that Tick fans back out to all of
// them.
func (f *Framework) NewClusterServer(opts ClusterOptions) (*ClusterServer, error) {
	if opts.Shards <= 0 {
		opts.Shards = 4
	}
	if len(opts.Advertise) > 0 && len(opts.Advertise) != 2*opts.Shards {
		return nil, fmt.Errorf("saqp: ClusterOptions.Advertise needs %d entries (2 per shard), got %d",
			2*opts.Shards, len(opts.Advertise))
	}
	// An instance is sized by the cluster's own fields only, and defaults
	// smaller than a standalone server (4 workers, 256 entries): one
	// process hosts 2·Shards of them.
	inst := ServerOptions{
		Workers:   opts.Workers,
		CacheSize: opts.CacheSize,
		QueueCap:  opts.QueueCap,
		Cluster:   opts.Cluster,
		Scheduler: opts.Scheduler,
	}
	if inst.Workers <= 0 {
		inst.Workers = 1
	}
	if inst.CacheSize <= 0 {
		inst.CacheSize = 64
	}
	// From here on Close is the unwinder: it drains whatever exists.
	cs := &ClusterServer{registry: f.NewLearner(LearnerConfig{})}
	specs := make([]shardserve.ShardSpec, opts.Shards)
	for shard := range specs {
		var pair [2]shardserve.Instance
		for role := range pair {
			rep := learn.NewReplica(cs.registry, f.Obs)
			srv, err := f.newServer(inst, rep)
			if err != nil {
				return nil, errors.Join(err, cs.Close())
			}
			cs.insts = append(cs.insts, srv)
			pair[role] = shardserve.Instance{Backend: backend{srv}, Model: rep}
		}
		specs[shard] = shardserve.ShardSpec{Primary: pair[0], Replica: pair[1]}
	}
	var err error
	cs.cluster, err = shardserve.NewCluster(shardserve.Config{
		Shards:             specs,
		Slots:              opts.Slots,
		CatalogFingerprint: f.statsFingerprint(),
		Registry:           cs.registry,
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
		return nil, errors.Join(err, cs.Close())
	}
	if !opts.Listen {
		return cs, nil
	}
	for idx := range cs.insts {
		shard, role := idx/2, ClusterRole(idx%2)
		srv, err := f.startNet(NetOptions{Addr: "127.0.0.1:0"}, cs.insts[idx], cs.cluster.View(shard, role))
		if err != nil {
			return nil, errors.Join(err, cs.Close())
		}
		cs.nets = append(cs.nets, srv)
		addr := srv.Addr()
		if len(opts.Advertise) > 0 {
			addr = opts.Advertise[idx]
		}
		cs.cluster.SetAddr(shard, role, addr)
	}
	return cs, nil
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

// Stats aggregates every instance's engine counters — the cluster-wide
// completion accounting the exactly-once gates compare against
// client-observed WAITs.
func (cs *ClusterServer) Stats() ServeStats {
	var agg ServeStats
	for _, srv := range cs.insts {
		agg.Add(srv.Stats())
	}
	return agg
}

// Learner returns the coordinator's model-lifecycle registry — the
// replication leader every instance's replica syncs from.
func (cs *ClusterServer) Learner() *Learner { return cs.registry }

// NetAddr returns one instance's actual TCP listen address, or ""
// when the cluster is not listening.
func (cs *ClusterServer) NetAddr(shard int, role ClusterRole) string {
	if idx := 2*shard + int(role); idx < len(cs.nets) {
		return cs.nets[idx].Addr()
	}
	return ""
}

// Shutdown drains the TCP frontends, bounded by ctx, as
// NetServer.Shutdown drains one: listeners close, idle connections are
// kicked, and in-flight commands — a WAIT on a running query included —
// complete and flush, because the instances keep serving until Close.
// When ctx expires first the remaining connections are torn down and
// its error returned. Keep ticking while this runs: a submission parked
// on a crashed primary is released only by the failover.
func (cs *ClusterServer) Shutdown(ctx context.Context) error {
	var err error
	for _, srv := range cs.nets {
		err = errors.Join(err, srv.Shutdown(ctx))
	}
	return err
}

// Close tears the frontends down at once — canceling submissions still
// in flight on a socket; Shutdown first to let them finish — then
// drains every instance: queued and running queries complete.
func (cs *ClusterServer) Close() error {
	var err error
	for _, srv := range cs.nets {
		err = errors.Join(err, srv.Close())
	}
	for _, srv := range cs.insts {
		err = errors.Join(err, srv.Close())
	}
	return err
}
