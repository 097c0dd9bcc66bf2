// Package fault generates deterministic, seed-driven fault plans for the
// cluster simulator: node crashes with timed recovery, per-node slowdown
// windows (stragglers), and per-attempt transient task failures. It models
// the failure half of the Hadoop 1.x semantics that the paper's testbed
// (Section 5) assumes away — the paper's predictions (Eq. 8–10) are fit on
// clean runs, and injecting faults is how the reproduction measures the
// prediction drift that failure recovery induces.
//
// Determinism contract: a Plan is fully expanded at construction from a
// sim.RNG seeded by Spec.Seed — node crash and slowdown windows are fixed
// before the run starts, and per-task failure decisions are a pure hash of
// (seed, task identity, attempt number), independent of dispatch
// order. Two runs with the same Spec, workload and scheduler are therefore
// byte-identical; a nil *Plan or a zero Spec injects nothing and leaves the
// simulated schedule untouched.
package fault
