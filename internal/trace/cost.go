package trace

import (
	"math"

	"saqp/internal/plan"
	"saqp/internal/sim"
)

// Params are the physical constants of the simulated cluster, loosely
// calibrated to the paper's testbed (hex-core Xeon X5650 nodes, SATA disks,
// GbE): effective single-task scan bandwidth ~90 MB/s, shuffle ~60 MB/s.
type Params struct {
	// StartupSec is the fixed task launch overhead (JVM start, planning).
	StartupSec float64
	// DiskBW is bytes/second for local reads and writes.
	DiskBW float64
	// NetBW is bytes/second for shuffle transfers.
	NetBW float64
	// CPURate maps operator type to map-side processing bytes/second.
	CPURateExtract float64
	CPURateGroupby float64
	CPURateJoin    float64
	// SortFactor scales the reduce-side merge-sort n·log(n) term.
	SortFactor float64
	// NoiseSigma is the sigma of the per-task log-normal noise.
	NoiseSigma float64
}

// DefaultParams returns the calibrated constants. Bandwidths are effective
// per-task rates with 12 containers contending for two SATA disks and one
// GbE link per node, so a 256 MB scan map runs tens of seconds — matching
// the paper-era job durations of Figure 2.
func DefaultParams() Params {
	return Params{
		StartupSec:     1.5,
		DiskBW:         30e6,
		NetBW:          18e6,
		CPURateExtract: 90e6,
		CPURateGroupby: 55e6,
		CPURateJoin:    35e6,
		SortFactor:     0.30,
		NoiseSigma:     0.08,
	}
}

// CostModel produces task durations. It is deterministic given its seed:
// the i-th call sequence yields identical durations across runs.
type CostModel struct {
	p   Params
	rng *sim.RNG
}

// NewCostModel builds a model with the given parameters and noise seed.
func NewCostModel(p Params, seed uint64) *CostModel {
	return &CostModel{p: p, rng: sim.New(seed)}
}

// NewDefaultCostModel builds a model with DefaultParams.
func NewDefaultCostModel(seed uint64) *CostModel {
	return NewCostModel(DefaultParams(), seed)
}

// TaskSpec describes one task for costing.
type TaskSpec struct {
	// Op is the job's major-operator category.
	Op plan.JobType
	// Reduce marks reduce tasks (map tasks otherwise).
	Reduce bool
	// InBytes and OutBytes are the task's input and output volumes.
	InBytes, OutBytes float64
}

// cpuRate returns the map-side processing rate for the operator.
func (m *CostModel) cpuRate(op plan.JobType) float64 {
	switch op {
	case plan.Join:
		return m.p.CPURateJoin
	case plan.Groupby:
		return m.p.CPURateGroupby
	default:
		return m.p.CPURateExtract
	}
}

// Expected returns the noise-free duration in seconds for a task — the
// model's mean behaviour, exposed for tests and calibration. It prices a
// task on a nominal node; the simulator applies cluster.Config.NodeFactors.
func (m *CostModel) Expected(t TaskSpec) float64 {
	p := m.p
	var sec float64
	if !t.Reduce {
		// Map: read input from disk, process, spill output locally.
		sec = p.StartupSec +
			t.InBytes/p.DiskBW +
			t.InBytes/m.cpuRate(t.Op) +
			t.OutBytes/p.DiskBW
	} else {
		// Reduce: shuffle over network, merge-sort (n·log n in 64 MB
		// segments), reduce-side processing, write output.
		segments := 1 + t.InBytes/(64<<20)
		sortSec := p.SortFactor * (t.InBytes / p.DiskBW) * math.Log2(1+segments)
		sec = p.StartupSec +
			t.InBytes/p.NetBW +
			sortSec +
			t.InBytes/m.cpuRate(t.Op) +
			t.OutBytes/p.DiskBW
	}
	// Joins pay an extra probe/materialisation cost proportional to the
	// produced volume — the data growth the paper's P(1-P) feature tracks.
	if t.Op == plan.Join {
		sec += 0.4 * t.OutBytes / p.DiskBW
	}
	return sec
}

// Duration returns the noisy observed duration in seconds for a task.
// Consecutive calls consume the model's deterministic noise stream.
func (m *CostModel) Duration(t TaskSpec) float64 {
	return m.Expected(t) * m.rng.LogNormal(0, m.p.NoiseSigma)
}
