package serve

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"saqp/internal/cluster"
	"saqp/internal/fault"
)

// TestFaultFailureSurfacesTypedError: a served query runs once,
// fault-free, so a fault plan given to the engine fails at New — even a
// plan that injects nothing — with a *cluster.ConfigError naming the
// field, before any worker starts.
func TestFaultFailureSurfacesTypedError(t *testing.T) {
	for _, p := range []*fault.Plan{
		fault.NewPlan(fault.Spec{Seed: 1, TaskFailProb: 1, MaxAttempts: 1}),
		fault.NewPlan(fault.Spec{}),
	} {
		cfg := config(t)
		cfg.Cluster.Faults = p
		before := runtime.NumGoroutine()
		e, err := New(cfg)
		if e != nil {
			e.Close()
			t.Fatal("New admitted a fault plan")
		}
		var ce *cluster.ConfigError
		if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "Faults") {
			t.Fatalf("New(Faults set) = %v, want a *cluster.ConfigError naming Faults", err)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("a refused New left %d goroutines running, %d before", after, before)
		}
	}
}
