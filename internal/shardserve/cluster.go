package shardserve

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"saqp/internal/learn"
	"saqp/internal/obs"
	"saqp/internal/query"
	"saqp/internal/serve"
)

// Role names the two serving instances of a shard.
type Role uint8

const (
	// RolePrimary is the instance that serves a shard's slots until it
	// crashes and a quorum failover demotes it.
	RolePrimary Role = iota
	// RoleReplica is the standby promoted by the sentinel quorum.
	RoleReplica
)

// String returns the lowercase role name used in CLUSTER output and
// EXPLAIN attribution.
func (r Role) String() string {
	if r == RoleReplica {
		return "replica"
	}
	return "primary"
}

// Instance is one engine behind the coordinator: its backend, the wire
// address it is advertised at (empty when it serves no socket), and
// its model replica (nil when the deployment runs without online
// learning).
type Instance struct {
	Backend serve.Backend
	Addr    string
	Model   *learn.Replica
}

// ShardSpec pairs a shard's primary with its failover standby. A
// zero-Backend replica leaves the shard without failover — the
// sentinel will vote it down but never promote.
type ShardSpec struct {
	Primary Instance
	Replica Instance
}

// Config assembles a Cluster. Shards is required; everything else
// defaults sensibly.
type Config struct {
	// Shards are the primary/replica pairs, in slot-range order.
	Shards []ShardSpec
	// Slots sizes the hash-slot space. Default DefaultSlots.
	Slots int
	// CatalogFingerprint is folded into every routing fingerprint — the
	// same identity the shard engines' plan caches key on.
	CatalogFingerprint string
	// Registry is the coordinator's model-lifecycle registry: champions
	// promote here and fan out to every instance's Replica on Tick. Nil
	// disables model replication.
	Registry *learn.Registry
	// Sentinel configures the health/failover loop.
	Sentinel SentinelConfig
	// Observer receives saqp_shard_* metrics; nil disables.
	Observer *obs.Observer
}

// ErrShardDown reports that a shard's active instance is inside a
// crash window and no failover has completed yet.
var ErrShardDown = errors.New("shardserve: shard is down pending failover")

// errNoReplica reports a submission routed to a shard whose replica
// was never configured while its primary is down.
var errNoReplica = errors.New("shardserve: shard down and no replica configured")

// shardState is one shard's mutable coordinator view, guarded by the
// cluster mutex.
type shardState struct {
	inst   [2]Instance
	active Role
	down   [2]bool
	// promoted is closed (and replaced) on every failover, releasing
	// submissions parked on the dead primary.
	promoted chan struct{}
	// misses and votes are per-sentinel heartbeat state.
	misses []int
	votes  []bool
}

// Cluster is the sharded-serving coordinator: slot-hash routing,
// primary/replica failover, and champion-model fan-out over a set of
// engine instances. All methods are goroutine-safe; the sentinel state
// machine only advances inside explicit Tick calls.
type Cluster struct {
	cfg   Config
	scfg  SentinelConfig
	slots int
	ob    *obs.Observer
	phase []float64

	mu     sync.Mutex
	shards []*shardState
	epoch  int
	tick   int
	events []Event
}

// NewCluster validates cfg and builds the coordinator: slot ranges are
// assigned, sentinel phases derived, and every configured model
// replica synced once so all shards start on the leader's champion.
func NewCluster(cfg Config) (*Cluster, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("shardserve: Config.Shards is required")
	}
	if cfg.Slots <= 0 {
		cfg.Slots = DefaultSlots
	}
	if cfg.Slots < len(cfg.Shards) {
		return nil, fmt.Errorf("shardserve: %d slots cannot cover %d shards", cfg.Slots, len(cfg.Shards))
	}
	scfg := cfg.Sentinel.normalize()
	c := &Cluster{cfg: cfg, scfg: scfg, slots: cfg.Slots, ob: cfg.Observer}
	c.phase = sentinelPhases(scfg)
	for i, spec := range cfg.Shards {
		if spec.Primary.Backend == nil {
			return nil, fmt.Errorf("shardserve: shard %d has no primary backend", i)
		}
		c.shards = append(c.shards, &shardState{
			inst:     [2]Instance{spec.Primary, spec.Replica},
			promoted: make(chan struct{}),
			misses:   make([]int, scfg.Sentinels),
			votes:    make([]bool, scfg.Sentinels),
		})
	}
	c.syncModelsLocked()
	return c, nil
}

// RouteInfo is one query's routing decision.
type RouteInfo struct {
	// Slot is the fingerprint's hash slot.
	Slot int
	// Shard is the slot's owning shard.
	Shard int
	// Addr is the advertised address of the shard's active instance —
	// the redirect target a -MOVED reply carries.
	Addr string
}

// Route normalizes sql exactly as the shard engines' plan caches do
// and resolves its slot, owning shard, and the active instance's
// advertised address.
func (c *Cluster) Route(sql string) (RouteInfo, error) {
	ri, _, err := c.route(sql)
	return ri, err
}

// route is Route plus the role serving the owning shard, read under
// the same lock as the address so the pair is one failover epoch's.
func (c *Cluster) route(sql string) (RouteInfo, Role, error) {
	q, err := query.Parse(sql)
	if err != nil {
		return RouteInfo{}, 0, err
	}
	slot := SlotOf(Fingerprint(serve.CacheKey(q.String(), c.cfg.CatalogFingerprint)), c.slots)
	shard := OwnerOf(slot, c.slots, len(c.shards))
	c.mu.Lock()
	sh := c.shards[shard]
	active := sh.active
	addr := sh.inst[active].Addr
	c.mu.Unlock()
	return RouteInfo{Slot: slot, Shard: shard, Addr: addr}, active, nil
}

// View is one instance's side of the coordinator — what the TCP
// frontend of (shard, role) serves. It is a serve.Backend: submissions
// go through the coordinator, so a frontend whose instance just failed
// over parks and completes on the promotion; Stats are the instance's
// own engine; Close does nothing, because the coordinator owns the
// engine and drains it when the cluster closes.
type View struct {
	c     *Cluster
	shard int
	role  Role
}

// View returns the instance view of (shard, role).
func (c *Cluster) View(shard int, role Role) View { return View{c: c, shard: shard, role: role} }

// Submit admits one query on the instance's shard via the coordinator.
func (v View) Submit(ctx context.Context, sql string, seed uint64) (serve.Pending, error) {
	return v.c.SubmitShard(ctx, v.shard, sql, seed)
}

// Stats snapshots the instance's own engine counters.
func (v View) Stats() serve.Stats {
	v.c.mu.Lock()
	b := v.c.shards[v.shard].inst[v.role].Backend
	v.c.mu.Unlock()
	if b == nil {
		return serve.Stats{}
	}
	return b.Stats()
}

// Route is the instance's routing gate (net.Config.Route): a query is
// local exactly when this instance is the active owner of its slot;
// otherwise addr is where the -MOVED redirect points.
func (v View) Route(sql string) (slot int, addr string, local bool, err error) {
	ri, active, err := v.c.route(sql)
	if err != nil {
		return 0, "", false, err
	}
	return ri.Slot, ri.Addr, ri.Shard == v.shard && active == v.role, nil
}

// Info is the CLUSTER verb's reply — the same topology snapshot from
// every instance.
func (v View) Info() []string { return v.c.Info() }

// Attribution is the line the instance appends to its EXPLAIN output:
// who answered, and the model version its predictions are served from.
func (v View) Attribution() string {
	v.c.mu.Lock()
	version := v.c.shards[v.shard].inst[v.role].Model.Version()
	v.c.mu.Unlock()
	return fmt.Sprintf("shard=%d role=%s model_version=%d", v.shard, v.role, version)
}

// SetAddr records the advertised wire address of one instance — the
// address MOVED redirects and CLUSTER output hand to clients.
func (c *Cluster) SetAddr(shard int, role Role, addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shards[shard].inst[role].Addr = addr
}

// Submit routes one query by its semantics-aware fingerprint and
// admits it on the owning shard.
func (c *Cluster) Submit(ctx context.Context, sql string, seed uint64) (serve.Pending, error) {
	ri, err := c.Route(sql)
	if err != nil {
		return nil, err
	}
	return c.SubmitShard(ctx, ri.Shard, sql, seed)
}

// SubmitShard admits one query on a specific shard's active instance.
// When the active instance is inside a crash window the call parks on
// the shard's promotion signal — a quorum failover releases it onto
// the promoted replica, so a submission accepted by the coordinator is
// never lost to a crash, only delayed by detection latency.
func (c *Cluster) SubmitShard(ctx context.Context, shard int, sql string, seed uint64) (serve.Pending, error) {
	if shard < 0 || shard >= len(c.shards) {
		return nil, fmt.Errorf("shardserve: shard %d out of range [0,%d)", shard, len(c.shards))
	}
	waited := false
	for {
		c.mu.Lock()
		sh := c.shards[shard]
		if !sh.down[sh.active] {
			inst := sh.inst[sh.active]
			c.mu.Unlock()
			p, err := inst.Backend.Submit(ctx, sql, seed)
			if err != nil {
				return nil, err
			}
			c.ob.Count(obs.MShardSubmissions)
			if waited {
				c.ob.Count(obs.MShardFailoverWaits)
			}
			return &shardPending{p: p, id: shardTicketID(shard, p.ID())}, nil
		}
		if sh.inst[RoleReplica].Backend == nil {
			c.mu.Unlock()
			return nil, errNoReplica
		}
		promoted := sh.promoted
		c.mu.Unlock()
		waited = true
		select {
		case <-promoted:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// shardTicketID qualifies an engine ticket id with its shard, so ids
// stay unique across a cluster whose engines all count from q000001.
func shardTicketID(shard int, id string) string {
	return "s" + strconv.Itoa(shard) + "-" + id
}

// shardPending wraps an engine ticket under its shard-qualified id.
type shardPending struct {
	p  serve.Pending
	id string
}

// ID returns the shard-qualified submission id.
func (sp *shardPending) ID() string { return sp.id }

// Wait blocks until the query completes, rewriting the result id to
// the shard-qualified form the client submitted under.
func (sp *shardPending) Wait(ctx context.Context) (serve.Result, error) {
	res, err := sp.p.Wait(ctx)
	if err != nil {
		return res, err
	}
	res.ID = sp.id
	return res, nil
}

// InstanceStatus is one instance's coordinator view.
type InstanceStatus struct {
	Shard        int
	Role         Role
	Addr         string
	Active       bool
	Down         bool
	ModelVersion int
	ModelLag     int
}

// Status is a point-in-time coordinator snapshot.
type Status struct {
	Slots         int
	Shards        int
	Epoch         int
	Tick          int
	LeaderVersion int
	Instances     []InstanceStatus
}

// Status snapshots slot ownership, failover state, and replication
// versions for every instance, in shard-then-role order.
func (c *Cluster) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Slots:         c.slots,
		Shards:        len(c.shards),
		Epoch:         c.epoch,
		Tick:          c.tick,
		LeaderVersion: c.cfg.Registry.Version(),
	}
	for i, sh := range c.shards {
		for r := range sh.inst {
			inst := sh.inst[r]
			if r == int(RoleReplica) && inst.Backend == nil {
				continue
			}
			st.Instances = append(st.Instances, InstanceStatus{
				Shard:        i,
				Role:         Role(r),
				Addr:         inst.Addr,
				Active:       sh.active == Role(r),
				Down:         sh.down[r],
				ModelVersion: inst.Model.Version(),
				ModelLag:     inst.Model.Lag(),
			})
		}
	}
	return st
}

// Info renders the CLUSTER verb's reply: cluster-wide fields first,
// then one line per shard with its slot range, active instance, and
// model replication state. The format is line-oriented and stable so
// golden wire transcripts can pin it.
func (c *Cluster) Info() []string {
	st := c.Status()
	lines := []string{
		"cluster_enabled:1",
		"cluster_slots:" + strconv.Itoa(st.Slots),
		"cluster_shards:" + strconv.Itoa(st.Shards),
		"cluster_epoch:" + strconv.Itoa(st.Epoch),
		"cluster_sentinels:" + strconv.Itoa(c.scfg.Sentinels),
		"cluster_quorum:" + strconv.Itoa(c.scfg.Quorum),
		"model_leader_version:" + strconv.Itoa(st.LeaderVersion),
	}
	byShard := make(map[int][]InstanceStatus, st.Shards)
	for _, is := range st.Instances {
		byShard[is.Shard] = append(byShard[is.Shard], is)
	}
	for i := 0; i < st.Shards; i++ {
		lo, hi := SlotRange(i, st.Slots, st.Shards)
		var b strings.Builder
		fmt.Fprintf(&b, "shard=%d slots=%d-%d", i, lo, hi)
		for _, is := range byShard[i] {
			state := "up"
			if is.Down {
				state = "down"
			}
			mark := ""
			if is.Active {
				mark = "*"
			}
			fmt.Fprintf(&b, " %s%s=%s(%s,v%d,lag%d)",
				is.Role, mark, is.Addr, state, is.ModelVersion, is.ModelLag)
		}
		lines = append(lines, b.String())
	}
	return lines
}

// syncModelsLocked fans the coordinator champion out to every alive
// instance's replica and reports the leader version and worst lag.
func (c *Cluster) syncModelsLocked() {
	if c.cfg.Registry == nil {
		return
	}
	maxLag := 0
	for _, sh := range c.shards {
		for r := range sh.inst {
			m := sh.inst[r].Model
			if m == nil {
				continue
			}
			if !sh.down[r] {
				m.Sync()
			}
			if lag := m.Lag(); lag > maxLag {
				maxLag = lag
			}
		}
	}
	c.ob.ShardModelSync(c.cfg.Registry.Version(), maxLag)
}
