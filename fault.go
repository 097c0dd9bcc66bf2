package saqp

import (
	"saqp/internal/cluster"
	"saqp/internal/fault"
)

// Fault-injection re-exports, so callers stay on the facade.
type (
	// FaultSpec parameterises a deterministic fault plan; see
	// internal/fault.Spec for every knob and its default.
	FaultSpec = fault.Spec
	// FaultPlan is a fully expanded, immutable fault schedule. Assign one
	// to ClusterConfig.Faults (nil injects nothing).
	FaultPlan = fault.Plan
	// TaskFailedError reports a query abandoned because one task
	// exhausted its attempt cap under fault injection; unwrap it from
	// SimulateQueryConfig errors with errors.As.
	TaskFailedError = cluster.TaskFailedError
	// FaultStats tallies a simulator run's fault-recovery activity.
	FaultStats = cluster.FaultStats
)

// NewFaultPlan expands a FaultSpec into an immutable schedule of node
// crashes and slowdown windows. The expansion is pure in the spec: equal
// specs yield byte-identical plans, so a seeded faulted run replays
// exactly.
func NewFaultPlan(spec FaultSpec) *FaultPlan { return fault.NewPlan(spec) }

// DefaultFaultSpec is the paper-scale default fault load for a 9-node
// cluster: occasional node crashes, slowdown windows, and a small
// per-attempt transient failure probability.
func DefaultFaultSpec(seed uint64) FaultSpec { return fault.DefaultSpec(seed) }

// DefaultClusterConfig returns the paper-scale simulated cluster (9 nodes,
// Hadoop 1.x slot counts). Set its Faults field to inject a fault plan
// before passing it to SimulateQueryConfig; ServerOptions.Cluster takes
// it without one.
func DefaultClusterConfig() ClusterConfig { return cluster.DefaultConfig() }
