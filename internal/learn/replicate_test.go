package learn

import (
	"testing"

	"saqp/internal/plan"
)

// feedReplicaJobs pushes n synthetic job samples through src with a
// linear ground truth the RLS learners can fit exactly.
func feedReplicaJobs(src Source, n int) {
	for i := 0; i < n; i++ {
		x := float64(i%17 + 1)
		y := float64(i%5 + 1)
		src.ObserveJob(plan.Groupby, []float64{x, y, x * y}, 3*x+2*y+0.5*x*y+1)
	}
}

func TestReplicaServesLeaderChampionAfterSync(t *testing.T) {
	reg := NewRegistry(Config{MinSamples: 10, Window: 5})
	rep := NewReplica(reg, nil)
	if v := rep.Version(); v != 0 {
		t.Fatalf("replica of a cold leader starts at version %d, want 0", v)
	}

	// Bootstrap the leader's first champion through the replica's own
	// feedback path — observations must flow upstream.
	feedReplicaJobs(rep, 25)
	if v := reg.Version(); v == 0 {
		t.Fatal("upstream registry never bootstrapped a champion; replica feedback did not reach it")
	}
	if got := rep.Version(); got != 0 {
		t.Fatalf("replica advanced to version %d without a Sync", got)
	}
	if lag := rep.Lag(); lag != reg.Version() {
		t.Fatalf("Lag = %d, want leader version %d", lag, reg.Version())
	}

	v := rep.Sync()
	if v != reg.Version() {
		t.Fatalf("Sync returned version %d, leader at %d", v, reg.Version())
	}
	if rep.Lag() != 0 {
		t.Fatalf("Lag = %d after Sync, want 0", rep.Lag())
	}
	if jobModelOf(rep) != jobModelOf(reg) {
		t.Fatal("replica job model is not the leader's frozen champion")
	}
	if taskModelOf(rep) != taskModelOf(reg) {
		t.Fatal("replica task model is not the leader's frozen champion")
	}
}

func TestReplicaSnapshotIsConsistent(t *testing.T) {
	reg := NewRegistry(Config{MinSamples: 5, Window: 4})
	feedReplicaJobs(reg, 10)
	v, jm, tm := reg.Champion()
	if v != reg.Version() {
		t.Fatalf("Champion version %d != Version() %d", v, reg.Version())
	}
	if jm != jobModelOf(reg) || tm != taskModelOf(reg) {
		t.Fatal("Champion models differ from the accessor views")
	}
}

func TestReplicaNilSafety(t *testing.T) {
	var rep *Replica
	if rep.Version() != 0 || rep.Lag() != 0 || rep.Sync() != 0 {
		t.Fatal("nil replica must report version/lag/sync 0")
	}
	if jobModelOf(rep) != nil || taskModelOf(rep) != nil {
		t.Fatal("nil replica must serve nil models")
	}
	rep.ObserveJob(plan.Groupby, []float64{1}, 1)
	rep.ObserveTask(plan.Groupby, false, []float64{1}, 1)

	// A live replica of a nil upstream must also be inert.
	live := NewReplica(nil, nil)
	live.ObserveJob(plan.Groupby, []float64{1}, 1)
	if live.Sync() != 0 || live.Lag() != 0 {
		t.Fatal("replica of a nil upstream must stay at version 0")
	}
}
