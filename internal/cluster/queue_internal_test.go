package cluster

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refQueue is container/heap over event pointers, the queue the simulator
// used before eventQueue: the reference order.
type refQueue []*event

func (h refQueue) Len() int           { return len(h) }
func (h refQueue) Less(i, j int) bool { return h[i].before(h[j]) }
func (h refQueue) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refQueue) Push(x any)        { *h = append(*h, x.(*event)) }
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
	if len(s.events) == 0 {
		t.Fatal("no event left queued")
	}
	s.Reset(DefaultConfig(), fifoPick{})
	for _, e := range s.events[:cap(s.events)] {
		if e.query != nil || e.task != nil {
			t.Fatalf("after Reset the queue's storage still holds %+v", e)
		}
	}
}

// TestEventQueueOrderEqualsContainerHeap: random interleavings of pushes
// and pops, with times drawn from a handful of values so most pushes tie,
// pop the same (time, seq) sequence from eventQueue as from container/heap.
// seq is unique, so the order is total and any correct heap agrees.
func TestEventQueueOrderEqualsContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		var got eventQueue
		var want refQueue
		seq := 0
		for op := 0; op < 400; op++ {
			if len(got) != len(want) {
				t.Fatalf("round %d: queue holds %d events, reference %d", round, len(got), len(want))
			}
			if len(got) > 0 && rng.Intn(5) < 2 {
				g, w := got.pop(), heap.Pop(&want).(*event)
				if g != *w {
					t.Fatalf("round %d op %d: popped (%v, %d), reference (%v, %d)", round, op, g.time, g.seq, w.time, w.seq)
				}
				continue
			}
			seq++
			ev := event{time: float64(rng.Intn(4)) * 0.5, seq: seq, slot: int32(op)}
			got.push(ev)
			heap.Push(&want, &ev)
		}
		for len(want) > 0 {
			g, w := got.pop(), heap.Pop(&want).(*event)
			if g != *w {
				t.Fatalf("round %d drain: popped %+v, reference %+v", round, g, *w)
			}
		}
		if len(got) != 0 {
			t.Fatalf("round %d: %d events left after the reference drained", round, len(got))
		}
		for _, e := range got[:cap(got)] {
			if e != (event{}) {
				t.Fatalf("round %d: a drained queue's spare capacity still holds %+v", round, e)
			}
		}
	}
}
