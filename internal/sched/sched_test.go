package sched_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"saqp/internal/cluster"
	"saqp/internal/sched"
)

// mkJob builds a standalone job with n pending maps belonging to a query.
func mkJob(queryID, jobID string, submit float64, maps int) *cluster.Job {
	q := &cluster.Query{ID: queryID}
	j := &cluster.Job{ID: queryID + "/" + jobID, JobID: jobID, Query: q, SubmitTime: submit}
	for i := 0; i < maps; i++ {
		j.Maps = append(j.Maps, &cluster.Task{Job: j, Index: i, ActualSec: 1, PredSec: 1})
	}
	j.ResetPending()
	q.Jobs = []*cluster.Job{j}
	q.RecomputeWRD()
	return j
}

func TestHCSFIFOSingleQueue(t *testing.T) {
	a := mkJob("qa", "J1", 5, 2)
	b := mkJob("qb", "J1", 1, 2)
	cands := []*cluster.Job{a, b}
	got := (sched.HCS{}).PickJob(0, cands, cands, false)
	if got != b {
		t.Fatalf("HCS picked %s, want earliest-submitted qb", got.ID)
	}
}

func TestHCSEmptyCandidates(t *testing.T) {
	if (sched.HCS{}).PickJob(0, nil, nil, false) != nil {
		t.Fatal("empty candidate set should give nil")
	}
	if (sched.HFS{}).PickJob(0, nil, nil, false) != nil {
		t.Fatal("HFS empty should give nil")
	}
	if (sched.SWRD{}).PickJob(0, nil, nil, false) != nil {
		t.Fatal("SWRD empty should give nil")
	}
}

func TestHCSMultiQueueServesUnderServedQueue(t *testing.T) {
	// With many queues, two queries land in (very likely) different queues;
	// the one whose queue has fewer running tasks is served first even if
	// it was submitted later.
	h := sched.HCS{Queues: 64}
	a := mkJob("query-a", "J1", 0, 4)
	b := mkJob("query-b", "J1", 10, 4)
	// Start two of a's tasks to inflate its queue usage.
	simStart(t, a, 2)
	cands := []*cluster.Job{a, b}
	got := h.PickJob(0, cands, cands, false)
	if got != b {
		t.Fatalf("multi-queue HCS picked %s, want the idle queue's job", got.ID)
	}
}

func TestHCSQueueStability(t *testing.T) {
	// The same query must always hash to the same queue: repeated picks
	// with equal usage are deterministic.
	h := sched.HCS{Queues: 4}
	a := mkJob("qa", "J1", 5, 1)
	b := mkJob("qb", "J1", 1, 1)
	cands := []*cluster.Job{a, b}
	first := h.PickJob(0, cands, cands, false)
	for i := 0; i < 10; i++ {
		if got := h.PickJob(0, cands, cands, false); got != first {
			t.Fatal("multi-queue HCS not deterministic")
		}
	}
}

// refHCS is HCS.PickJob as it was written before its one-pass form: a
// fnv hasher per lookup, a usage map even for one queue, the queue
// chosen first and FIFO within it second.
func refHCS(queues int, cands, active []*cluster.Job) *cluster.Job {
	queueOf := func(j *cluster.Job) int {
		if queues <= 1 {
			return 0
		}
		f := fnv.New32a()
		f.Write([]byte(j.Query.ID))
		return int(f.Sum32()) % queues
	}
	if len(cands) == 0 {
		return nil
	}
	usage := map[int]int{}
	for _, j := range active {
		usage[queueOf(j)] += j.RunningTasks()
	}
	bestQueue := -1
	for _, j := range cands {
		q := queueOf(j)
		if bestQueue < 0 || usage[q] < usage[bestQueue] ||
			(usage[q] == usage[bestQueue] && q < bestQueue) {
			bestQueue = q
		}
	}
	var best *cluster.Job
	for _, j := range cands {
		if queueOf(j) == bestQueue && (best == nil || j.SubmitTime < best.SubmitTime) {
			best = j
		}
	}
	return best
}

// TestHCSPicksEqualReference: over random candidate sets with tied submit
// times and running counts, HCS at 1, 2, 3 and 8 queues picks exactly the
// job the reference picks.
func TestHCSPicksEqualReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 2000; round++ {
		var active []*cluster.Job
		for i, n := 0, 1+rng.Intn(12); i < n; i++ {
			j := mkJob(fmt.Sprintf("q%d", rng.Intn(20)), fmt.Sprintf("J%d", i), float64(rng.Intn(4)), 4)
			simStart(t, j, rng.Intn(4))
			active = append(active, j)
		}
		var cands []*cluster.Job
		for _, j := range active {
			if rng.Intn(3) > 0 {
				cands = append(cands, j)
			}
		}
		for _, queues := range []int{0, 1, 2, 3, 8} {
			if got, want := (sched.HCS{Queues: queues}).PickJob(0, cands, active, false), refHCS(queues, cands, active); got != want {
				t.Fatalf("round %d, %d queues: HCS picked %v, reference %v", round, queues, got, want)
			}
		}
	}
}

func TestHFSPrefersFewestRunning(t *testing.T) {
	a := mkJob("qa", "J1", 0, 4)
	b := mkJob("qb", "J1", 10, 4)
	simStart(t, a, 3)
	cands := []*cluster.Job{a, b}
	got := (sched.HFS{}).PickJob(0, cands, cands, false)
	if got != b {
		t.Fatalf("HFS picked %s, want the job with fewer running tasks", got.ID)
	}
}

func TestHFSTieBreaksFIFO(t *testing.T) {
	a := mkJob("qa", "J1", 5, 2)
	b := mkJob("qb", "J1", 1, 2)
	cands := []*cluster.Job{a, b}
	if got := (sched.HFS{}).PickJob(0, cands, cands, false); got != b {
		t.Fatalf("HFS tie-break picked %s, want earliest submit", got.ID)
	}
}

func TestSWRDPrefersSmallestWRD(t *testing.T) {
	big := mkJob("big", "J1", 0, 50) // WRD 50
	small := mkJob("small", "J1", 10, 2)
	cands := []*cluster.Job{big, small}
	if got := (sched.SWRD{}).PickJob(0, cands, cands, false); got != small {
		t.Fatalf("SWRD picked %s, want smallest-WRD query", got.ID)
	}
}

func TestSWRDTieBreaksByArrival(t *testing.T) {
	a := mkJob("qa", "J1", 0, 3)
	b := mkJob("qb", "J1", 0, 3)
	a.Query.ArrivalTime = 5
	b.Query.ArrivalTime = 1
	cands := []*cluster.Job{a, b}
	if got := (sched.SWRD{}).PickJob(0, cands, cands, false); got != b {
		t.Fatalf("SWRD tie-break picked %s, want earliest arrival", got.ID)
	}
}

func TestSchedulerNames(t *testing.T) {
	if (sched.HCS{}).Name() != "HCS" || (sched.HFS{}).Name() != "HFS" || (sched.SWRD{}).Name() != "SWRD" {
		t.Fatal("scheduler names wrong")
	}
}

// TestByName covers the registry: every advertised name resolves to a
// policy that reports that same name, and an unknown name's error
// enumerates all the valid ones.
func TestByName(t *testing.T) {
	names := sched.Names()
	if len(names) == 0 {
		t.Fatal("Names() is empty")
	}
	for _, name := range names {
		pol, err := sched.ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if got := pol.Name(); got != name {
			t.Errorf("ByName(%q) resolved to policy named %q", name, got)
		}
	}
	_, err := sched.ByName("bogus")
	if err == nil {
		t.Fatal("ByName should reject an unknown scheduler")
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q should list valid scheduler %q", err, name)
		}
	}
	if !strings.Contains(err.Error(), `"bogus"`) {
		t.Errorf("error %q should quote the offending name", err)
	}
}

// simStart starts n of j's map tasks the way a dispatch does, so the
// job's running count — what share-based policies read — follows.
func simStart(t *testing.T, j *cluster.Job, n int) {
	t.Helper()
	for i := 0; i < n && i < len(j.Maps); i++ {
		j.Maps[i].Start()
	}
}
