package cluster_test

import (
	"errors"
	"math"
	"testing"

	"saqp/internal/cluster"
	"saqp/internal/plan"
	"saqp/internal/selectivity"
)

// TestCheckTaskBound: an estimate of exactly MaxQueryTasks tasks may be
// laid out, one more task is refused with the count, a non-finite byte
// volume is refused whatever the count, and so is a job without a map
// task group: the estimate's groups are the only layout.
func TestCheckTaskBound(t *testing.T) {
	estimate := func(maps, reduces int, inBytes float64) *selectivity.QueryEstimate {
		return &selectivity.QueryEstimate{Jobs: []*selectivity.JobEstimate{{
			Job:     &plan.Job{ID: "J1", Type: plan.Groupby},
			NumMaps: maps, NumReduces: reduces, InBytes: inBytes,
			MapGroups:    []selectivity.TaskGroup{{Count: maps, InBytes: inBytes / float64(maps)}},
			ReduceGroups: []selectivity.TaskGroup{{Count: reduces}},
		}}}
	}
	if err := cluster.CheckTaskBound(estimate(cluster.MaxQueryTasks-1, 1, 1e9)); err != nil {
		t.Fatalf("%d tasks: %v, want nil", cluster.MaxQueryTasks, err)
	}
	var bound *cluster.TaskBoundError
	if err := cluster.CheckTaskBound(estimate(cluster.MaxQueryTasks, 1, 1e9)); !errors.As(err, &bound) || bound.Tasks != cluster.MaxQueryTasks+1 {
		t.Fatalf("%d tasks: %v, want a *TaskBoundError counting them", cluster.MaxQueryTasks+1, err)
	}
	for _, v := range []float64{math.Inf(1), math.NaN()} {
		if err := cluster.CheckTaskBound(estimate(1, 1, v)); !errors.As(err, &bound) || !math.IsNaN(bound.Tasks) {
			t.Errorf("input volume %v: %v, want a *TaskBoundError for a non-finite volume", v, err)
		}
	}
	groupless := estimate(3, 1, 1e9)
	groupless.Jobs[0].MapGroups = nil
	if err := cluster.CheckTaskBound(groupless); !errors.As(err, &bound) || bound.Tasks != 0 ||
		err.Error() != "cluster: a job of the estimate has no map task group" {
		t.Errorf("no map group: %v, want a *TaskBoundError naming the missing group", err)
	}
}
