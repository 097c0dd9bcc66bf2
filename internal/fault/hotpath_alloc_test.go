package fault

import "testing"

var (
	hotSinkBool  bool
	hotSinkFloat float64
)

// TestHotPathAllocs is the runtime half of the //saqp:hotpath contract
// for the two questions the simulator asks a plan per dispatched task.
func TestHotPathAllocs(t *testing.T) {
	p := NewPlan(Spec{Seed: 3, Nodes: 4, HorizonSec: 100, SlowProb: 1, SlowDurationSec: 50, TaskFailProb: 0.5})
	if n := testing.AllocsPerRun(100, func() {
		hotSinkBool, hotSinkFloat = p.TaskFailure("q000001/J2", true, 3, 1)
		hotSinkFloat += p.SlowFactor(2, 10)
	}); n != 0 {
		t.Errorf("TaskFailure + SlowFactor allocate %.0f times per call; //saqp:hotpath functions must not allocate", n)
	}
}
