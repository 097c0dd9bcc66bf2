package shardserve

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"saqp/internal/fault"
	"saqp/internal/learn"
	"saqp/internal/plan"
	"saqp/internal/serve"
)

// fakePending completes immediately with a canned result.
type fakePending struct {
	id string
}

func (p *fakePending) ID() string { return p.id }

func (p *fakePending) Wait(ctx context.Context) (serve.Result, error) {
	return serve.Result{ID: p.id, SimSec: 1}, nil
}

// fakeBackend is an in-memory Backend that records submissions.
type fakeBackend struct {
	name string

	mu   sync.Mutex
	seq  int
	subs []string
}

func (b *fakeBackend) Submit(ctx context.Context, sql string, seed uint64) (serve.Pending, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seq++
	b.subs = append(b.subs, sql)
	return &fakePending{id: fmt.Sprintf("q%06d", b.seq)}, nil
}

func (b *fakeBackend) Stats() serve.Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return serve.Stats{Submitted: uint64(len(b.subs)), Completed: uint64(len(b.subs))}
}

func (b *fakeBackend) submissions() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// newTestCluster builds an n-shard cluster of fake backends with the
// given fault plan, three sentinels, and a 2-miss threshold.
func newTestCluster(t *testing.T, n int, pl *fault.Plan, reg *learn.Registry) (*Cluster, [][2]*fakeBackend) {
	t.Helper()
	backends := make([][2]*fakeBackend, n)
	specs := make([]ShardSpec, n)
	for i := range specs {
		p := &fakeBackend{name: fmt.Sprintf("s%d-primary", i)}
		r := &fakeBackend{name: fmt.Sprintf("s%d-replica", i)}
		backends[i] = [2]*fakeBackend{p, r}
		specs[i] = ShardSpec{
			Primary: Instance{Backend: p, Addr: fmt.Sprintf("127.0.0.1:7%d00", i), Model: learn.NewReplica(reg, nil)},
			Replica: Instance{Backend: r, Addr: fmt.Sprintf("127.0.0.1:7%d01", i), Model: learn.NewReplica(reg, nil)},
		}
	}
	c, err := NewCluster(Config{
		Shards:             specs,
		CatalogFingerprint: "cat-test",
		Registry:           reg,
		Sentinel: SentinelConfig{
			Sentinels:     3,
			MissThreshold: 2,
			HeartbeatSec:  1,
			Plan:          pl,
			Seed:          7,
		},
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return c, backends
}

func TestSlotPartitionCoversEverySlotExactlyOnce(t *testing.T) {
	for _, tc := range []struct{ slots, shards int }{
		{64, 1}, {64, 2}, {64, 4}, {64, 5}, {10, 3}, {7, 7}, {128, 6},
	} {
		covered := make([]int, tc.slots)
		for shard := 0; shard < tc.shards; shard++ {
			lo, hi := SlotRange(shard, tc.slots, tc.shards)
			for s := lo; s <= hi; s++ {
				covered[s]++
				if got := OwnerOf(s, tc.slots, tc.shards); got != shard {
					t.Fatalf("slots=%d shards=%d: OwnerOf(%d)=%d but SlotRange(%d)=[%d,%d]",
						tc.slots, tc.shards, s, got, shard, lo, hi)
				}
			}
		}
		for s, n := range covered {
			if n != 1 {
				t.Fatalf("slots=%d shards=%d: slot %d covered %d times", tc.slots, tc.shards, s, n)
			}
		}
	}
}

func TestRouteNormalizesBeforeHashing(t *testing.T) {
	c, _ := newTestCluster(t, 4, nil, nil)
	a, err := c.Route("SELECT COUNT(*) FROM lineitem WHERE l_quantity < 24")
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	b, err := c.Route("select   count(*)\n from LINEITEM where l_quantity < 24")
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	if a != b {
		t.Fatalf("equivalent queries routed differently: %+v vs %+v", a, b)
	}
	if a.Shard != OwnerOf(a.Slot, DefaultSlots, 4) {
		t.Fatalf("RouteInfo shard %d inconsistent with OwnerOf(%d)", a.Shard, a.Slot)
	}
	if a.Addr == "" {
		t.Fatal("RouteInfo.Addr empty; want the active instance's advertised address")
	}
}

func TestSubmitPrefixesTicketIDsWithShard(t *testing.T) {
	c, backends := newTestCluster(t, 2, nil, nil)
	ctx := context.Background()
	p, err := c.SubmitShard(ctx, 1, "SELECT COUNT(*) FROM orders", 42)
	if err != nil {
		t.Fatalf("SubmitShard: %v", err)
	}
	if p.ID() != "s1-q000001" {
		t.Fatalf("ticket id = %q, want s1-q000001", p.ID())
	}
	res, err := p.Wait(ctx)
	if err != nil || res.ID != "s1-q000001" {
		t.Fatalf("Wait = (%+v, %v), want result id s1-q000001", res, err)
	}
	if backends[1][0].submissions() != 1 || backends[0][0].submissions() != 0 {
		t.Fatal("submission landed on the wrong shard's primary")
	}
}

// crashPlan builds a plan guaranteed to crash every node once.
func crashPlan(t *testing.T, nodes int) *fault.Plan {
	t.Helper()
	pl := fault.NewPlan(fault.Spec{
		Seed:             11,
		Nodes:            nodes,
		HorizonSec:       40,
		CrashProb:        1,
		CrashDowntimeSec: 15,
	})
	if len(pl.Crashes()) != nodes {
		t.Fatalf("crashPlan: %d windows for %d nodes", len(pl.Crashes()), nodes)
	}
	return pl
}

func TestSentinelQuorumFailover(t *testing.T) {
	pl := crashPlan(t, 2)
	c, backends := newTestCluster(t, 2, pl, nil)

	const ticks = 60 // past horizon + downtime: every crash actuates and rejoins
	var all []Event
	for i := 0; i < ticks; i++ {
		all = append(all, c.Tick()...)
	}
	kinds := map[string]int{}
	for _, e := range all {
		kinds[e.Kind]++
	}
	if kinds[EventCrash] != 2 || kinds[EventRejoin] != 2 {
		t.Fatalf("crash/rejoin = %d/%d, want 2/2 (events: %+v)", kinds[EventCrash], kinds[EventRejoin], all)
	}
	if kinds[EventFailover] != 2 {
		t.Fatalf("failovers = %d, want one per shard", kinds[EventFailover])
	}
	if kinds[EventVote] < 2*2 {
		t.Fatalf("votes = %d, want at least quorum per shard", kinds[EventVote])
	}
	st := c.Status()
	for _, is := range st.Instances {
		if is.Active != (is.Role == RoleReplica) {
			t.Fatalf("shard %d %v active = %v after failover, want the replica serving", is.Shard, is.Role, is.Active)
		}
	}
	if st.Epoch != 2 {
		t.Fatalf("epoch = %d after two failovers, want 2", st.Epoch)
	}

	// Votes precede their shard's failover, and the failover carries a
	// quorum-sized vote count.
	for _, e := range all {
		if e.Kind == EventFailover && e.Votes < 2 {
			t.Fatalf("failover with %d votes, want >= quorum 2: %+v", e.Votes, e)
		}
	}

	// Post-failover traffic lands on replicas.
	ctx := context.Background()
	for shard := 0; shard < 2; shard++ {
		if _, err := c.SubmitShard(ctx, shard, "SELECT COUNT(*) FROM orders", 1); err != nil {
			t.Fatalf("post-failover submit on shard %d: %v", shard, err)
		}
		if backends[shard][1].submissions() != 1 {
			t.Fatalf("shard %d replica saw %d submissions, want 1", shard, backends[shard][1].submissions())
		}
		if backends[shard][0].submissions() != 0 {
			t.Fatalf("shard %d demoted primary still receiving traffic", shard)
		}
	}
}

func TestSubmitParksDuringOutageAndReleasesOnPromotion(t *testing.T) {
	pl := crashPlan(t, 1)
	c, backends := newTestCluster(t, 1, pl, nil)

	// Tick until the crash actuates, but stop before the failover.
	crashed := false
	for i := 0; i < 60 && !crashed; i++ {
		for _, e := range c.Tick() {
			if e.Kind == EventCrash {
				crashed = true
			}
		}
	}
	if !crashed {
		t.Fatal("plan never actuated a crash")
	}

	ctx := context.Background()
	done := make(chan error, 1)
	ids := make(chan string, 1)
	go func() {
		p, err := c.SubmitShard(ctx, 0, "SELECT COUNT(*) FROM orders", 9)
		if err != nil {
			done <- err
			return
		}
		ids <- p.ID()
		done <- nil
	}()

	// Drive ticks until the sentinel promotes; the parked submission
	// must complete on the replica.
	failedOver := false
	for i := 0; i < 60 && !failedOver; i++ {
		for _, e := range c.Tick() {
			if e.Kind == EventFailover {
				failedOver = true
			}
		}
	}
	if !failedOver {
		t.Fatal("sentinel never failed over")
	}
	if err := <-done; err != nil {
		t.Fatalf("parked submission failed: %v", err)
	}
	if id := <-ids; id != "s0-q000001" {
		t.Fatalf("parked submission id = %q", id)
	}
	if backends[0][1].submissions() != 1 || backends[0][0].submissions() != 0 {
		t.Fatal("parked submission did not land on the promoted replica")
	}
}

func TestEventLogIsByteIdenticalAcrossReplays(t *testing.T) {
	run := func() []byte {
		pl := crashPlan(t, 4)
		c, _ := newTestCluster(t, 4, pl, nil)
		for i := 0; i < 80; i++ {
			c.Tick()
		}
		return c.EventsJSON()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty event log from a plan that crashes all four nodes")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed replays diverged:\n--- run A ---\n%s\n--- run B ---\n%s", a, b)
	}
}

func TestModelReplicationFansOutOnTick(t *testing.T) {
	reg := learn.NewRegistry(learn.Config{MinSamples: 5, Window: 4})
	c, _ := newTestCluster(t, 2, nil, reg)

	// Bootstrap a champion on the coordinator registry.
	for i := 0; i < 20; i++ {
		x := float64(i%7 + 1)
		reg.ObserveJob(plan.Groupby, []float64{x, x * x}, 2*x+3)
	}
	leader := reg.Version()
	if leader == 0 {
		t.Fatal("registry never promoted a champion")
	}

	st := c.Status()
	for _, is := range st.Instances {
		if is.ModelVersion != 0 {
			t.Fatalf("instance %d/%v at version %d before any tick", is.Shard, is.Role, is.ModelVersion)
		}
		if is.ModelLag != leader {
			t.Fatalf("instance %d/%v lag = %d, want %d", is.Shard, is.Role, is.ModelLag, leader)
		}
	}

	c.Tick()
	st = c.Status()
	if st.LeaderVersion != leader {
		t.Fatalf("Status.LeaderVersion = %d, want %d", st.LeaderVersion, leader)
	}
	for _, is := range st.Instances {
		if is.ModelVersion != leader || is.ModelLag != 0 {
			t.Fatalf("instance %d/%v = v%d lag %d after tick, want v%d lag 0",
				is.Shard, is.Role, is.ModelVersion, is.ModelLag, leader)
		}
	}
}

// TestViewIsTheActiveOwnersGate pins the per-instance view the TCP
// frontends serve: Route is local exactly on the active instance of the
// owning shard — before and after a failover — redirects carry the
// active instance's address, Stats are the instance's own engine, and
// Attribution names the instance and its replica's model version.
func TestViewIsTheActiveOwnersGate(t *testing.T) {
	reg := learn.NewRegistry(learn.Config{MinSamples: 5, Window: 4})
	c, backends := newTestCluster(t, 2, crashPlan(t, 2), reg)
	const sql = "SELECT COUNT(*) FROM orders"
	ri, err := c.Route(sql)
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	check := func(active Role) {
		t.Helper()
		for shard := 0; shard < 2; shard++ {
			for role := RolePrimary; role <= RoleReplica; role++ {
				slot, addr, local, err := c.View(shard, role).Route(sql)
				if err != nil {
					t.Fatalf("View(%d,%v).Route: %v", shard, role, err)
				}
				if want := shard == ri.Shard && role == active; local != want {
					t.Errorf("View(%d,%v) local = %v with %v active on shard %d, want %v", shard, role, local, active, ri.Shard, want)
				}
				if want := fmt.Sprintf("127.0.0.1:7%d0%d", ri.Shard, active); slot != ri.Slot || addr != want {
					t.Errorf("View(%d,%v) redirects to slot %d at %s, want %d at %s", shard, role, slot, addr, ri.Slot, want)
				}
			}
		}
	}
	check(RolePrimary)
	for i := 0; i < 20; i++ {
		x := float64(i%7 + 1)
		reg.ObserveJob(plan.Groupby, []float64{x, x * x}, 2*x+3)
	}
	for i := 0; i < 60; i++ {
		c.Tick()
	}
	check(RoleReplica)

	v := c.View(ri.Shard, RoleReplica)
	if _, err := v.Submit(context.Background(), sql, 1); err != nil {
		t.Fatalf("View.Submit: %v", err)
	}
	if got := backends[ri.Shard][RoleReplica].submissions(); got != 1 {
		t.Fatalf("promoted replica saw %d submissions through its view, want 1", got)
	}
	if got, want := v.Stats(), backends[ri.Shard][RoleReplica].Stats(); got != want {
		t.Errorf("View.Stats = %+v, want the instance's own engine's %+v", got, want)
	}
	if got, want := v.Attribution(), fmt.Sprintf("shard=%d role=replica model_version=%d", ri.Shard, reg.Version()); got != want || reg.Version() == 0 {
		t.Errorf("View.Attribution = %q, want %q with a promoted champion", got, want)
	}
}

func TestInfoIsStableAndShardOrdered(t *testing.T) {
	c, _ := newTestCluster(t, 2, nil, nil)
	a := strings.Join(c.Info(), "\n")
	b := strings.Join(c.Info(), "\n")
	if a != b {
		t.Fatalf("Info output unstable:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{
		"cluster_enabled:1",
		"cluster_slots:64",
		"cluster_shards:2",
		"cluster_quorum:2",
		"shard=0 slots=0-31",
		"shard=1 slots=32-63",
		"primary*=127.0.0.1:7000(up,v0,lag0)",
	} {
		if !strings.Contains(a, want) {
			t.Fatalf("Info missing %q:\n%s", want, a)
		}
	}
}
