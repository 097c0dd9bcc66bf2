package cluster

import (
	"fmt"
	"testing"
	"unsafe"
)

// TestJobSizePinned: do not let Job grow. A query's jobs are one slab
// (BuildQuery), and three more int fields moved that slab a size class up:
// serve_hot's alloc_kb_per_op went 2.932 → 3.004, +2.4 % against a 2 % bound.
// Packed as int32s beside Type and Submitted — each followed by 7 bytes of
// padding before — the struct stayed at 208 bytes and the metric at 2.932.
// A query is a chain whose next job is submitted when the one before it
// completes, so a job carries no list of upstream ids: without that
// slice header Job was 184 bytes. A hoarder is derived — a running reduce
// of a job whose maps are not done — so a job keeps no hoard list either:
// without that slice header Job is 160 bytes.
func TestJobSizePinned(t *testing.T) {
	if size := unsafe.Sizeof(Job{}); size > 160 {
		t.Fatalf("Job is %d bytes, pinned at 160: a new field must fit the struct's padding", size)
	}
}

// TestTaskSizePinned: do not let Task grow. A query's tasks are one slab
// (BuildQuery), the largest share of what a served hit allocates. Laid
// out pointer, floats, ints, flags, with the simulator's counters as
// int32s, Task went 184 → 120 bytes, and with it most of serve_hot's
// alloc_kb_per_op drop from 2.932 to 2.358; one attempt per task instead
// of two took it to 88, and dropping the scheduled end time nothing read
// to 80, with 5 bytes of tail padding after the flags.
func TestTaskSizePinned(t *testing.T) {
	if size := unsafe.Sizeof(Task{}); size > 80 {
		t.Fatalf("Task is %d bytes, pinned at 80: keep the layout pointer, floats, ints, flags", size)
	}
}

// TestEventSizePinned: the event queue's store holds events by value, so
// every push and pop copies one.
func TestEventSizePinned(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size > 48 {
		t.Fatalf("event is %d bytes, pinned at 48", size)
	}
}

// TestEventKeySizePinned: every sift step of the event heap moves one key,
// (time, seq) and a store slot; a key that grew or gained a pointer would
// bring back the copying and write barriers the split removed.
func TestEventKeySizePinned(t *testing.T) {
	if size := unsafe.Sizeof(eventKey{}); size != 24 {
		t.Fatalf("eventKey is %d bytes, pinned at 24", size)
	}
}

// ScanMismatch recounts j's running tasks and finds each phase's first
// pending task by scanning — what RunningTasks and nextPending did before
// the job kept a count and two cursors — and describes the first
// disagreement with them, or returns "".
func (j *Job) ScanMismatch() string {
	running := 0
	for p, tasks := range [2][]*Task{j.Maps, j.Reds} {
		var first *Task
		for _, t := range tasks {
			if t.State == TaskRunning {
				running++
			}
			if t.State == TaskPending && first == nil {
				first = t
			}
		}
		if got := j.nextPending(p); got != first {
			return fmt.Sprintf("%s: nextPending(reduce=%v) is %s, a scan finds %s", j.ID, p == 1, taskName(got), taskName(first))
		}
	}
	if got := j.RunningTasks(); got != running {
		return fmt.Sprintf("%s: RunningTasks() is %d, a scan counts %d", j.ID, got, running)
	}
	return ""
}

func taskName(t *Task) string {
	if t == nil {
		return "none"
	}
	return fmt.Sprintf("task %d", t.Index)
}

// HoardMismatch counts the hoarding reduces by scanning — the running
// reduces of active jobs whose maps are not done — and describes a
// disagreement with the count s keeps for the hoarding caps, or returns "".
func (s *Sim) HoardMismatch() string {
	n := 0
	for _, j := range s.active {
		if j.MapsDone() {
			continue
		}
		for _, t := range j.Reds {
			if t.State == TaskRunning {
				n++
			}
		}
	}
	if n != s.hoarded {
		return fmt.Sprintf("the Sim counts %d hoarding reduces, a scan counts %d", s.hoarded, n)
	}
	return ""
}
