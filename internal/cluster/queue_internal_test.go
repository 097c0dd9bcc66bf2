package cluster

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refQueue is container/heap over event pointers, the queue the simulator
// used before eventQueue: the reference order.
type refQueue []*event

func (h refQueue) Len() int { return len(h) }
func (h refQueue) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h refQueue) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refQueue) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *refQueue) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// TestResetReleasesQueuedEvents: a run stopped with events still queued
// leaves none of them behind a Reset, so an idle owner's Sim pins no task
// or query of the stopped run.
func TestResetReleasesQueuedEvents(t *testing.T) {
	s := New(DefaultConfig(), fifoPick{})
	s.Submit(mkQuery("stopped", 4, 2), 0)
	s.Submit(mkQuery("queued", 4, 2), 5)
	s.events.pop()
	if s.events.len() == 0 {
		t.Fatal("no event left queued")
	}
	s.Reset(DefaultConfig(), fifoPick{})
	for _, e := range s.events.store[:cap(s.events.store)] {
		if e.query != nil || e.task != nil {
			t.Fatalf("after Reset the queue's storage still holds %+v", e)
		}
	}
}

// TestEventQueueOrderEqualsContainerHeap: random interleavings of pushes
// and pops, with times drawn from a handful of values so most pushes tie,
// pop the same sequence from eventQueue as from container/heap — every
// field of every event, so a popped payload is the one its key was pushed
// with. seq is unique, so the order is total and any correct heap agrees.
// A drained queue's store holds nothing, in its spare capacity too.
func TestEventQueueOrderEqualsContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	queries := []*Query{{ID: "a"}, {ID: "b"}}
	tasks := []*Task{{Index: 1}, {Index: 2}, {Index: 3}}
	for round := 0; round < 200; round++ {
		var got eventQueue
		var want refQueue
		seq := 0
		for op := 0; op < 400; op++ {
			if got.len() != len(want) {
				t.Fatalf("round %d: queue holds %d events, reference %d", round, got.len(), len(want))
			}
			if got.len() > 0 && rng.Intn(5) < 2 {
				g, w := got.pop(), heap.Pop(&want).(*event)
				if g != *w {
					t.Fatalf("round %d op %d: popped %+v, reference %+v", round, op, g, *w)
				}
				continue
			}
			seq++
			ev := event{
				time: float64(rng.Intn(4)) * 0.5, seq: seq,
				query: queries[rng.Intn(len(queries))], task: tasks[rng.Intn(len(tasks))],
				slot: int32(op), epoch: int32(rng.Intn(3)), node: int32(rng.Intn(9)), kind: eventKind(rng.Intn(7)),
			}
			got.push(ev)
			heap.Push(&want, &ev)
		}
		for len(want) > 0 {
			g, w := got.pop(), heap.Pop(&want).(*event)
			if g != *w {
				t.Fatalf("round %d drain: popped %+v, reference %+v", round, g, *w)
			}
		}
		if got.len() != 0 {
			t.Fatalf("round %d: %d events left after the reference drained", round, got.len())
		}
		for _, e := range got.store[:cap(got.store)] {
			if e != (event{}) {
				t.Fatalf("round %d: a drained queue's store still holds %+v", round, e)
			}
		}
	}
}
