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
// slice header Job is 184 bytes.
func TestJobSizePinned(t *testing.T) {
	if size := unsafe.Sizeof(Job{}); size > 184 {
		t.Fatalf("Job is %d bytes, pinned at 184: a new field must fit the struct's padding", size)
	}
}

// TestTaskSizePinned: do not let Task grow. A query's tasks are one slab
// (BuildQuery), the largest share of what a served hit allocates. Laid
// out pointer, floats, ints, flags, with the simulator's counters as
// int32s, Task went 184 → 120 bytes, and with it most of serve_hot's
// alloc_kb_per_op drop from 2.932 to 2.358; one attempt per task instead
// of two took it to 88.
func TestTaskSizePinned(t *testing.T) {
	if size := unsafe.Sizeof(Task{}); size > 88 {
		t.Fatalf("Task is %d bytes, pinned at 88: keep the layout pointer, floats, ints, flags", size)
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
