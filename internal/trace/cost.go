package trace

import (
	"math"

	"saqp/internal/plan"
	"saqp/internal/sim"
)

// The physical constants of the simulated cluster, loosely calibrated to
// the paper's testbed (hex-core Xeon X5650 nodes, SATA disks, GbE).
// Bandwidths are effective per-task rates with 12 containers contending
// for two SATA disks and one GbE link per node, so a 256 MB scan map runs
// tens of seconds — matching the paper-era job durations of Figure 2.
const (
	// startupSec is the fixed task launch overhead (JVM start, planning).
	startupSec = 1.5
	// diskBW is bytes/second for local reads and writes.
	diskBW = 30e6
	// netBW is bytes/second for shuffle transfers.
	netBW = 18e6
	// cpuRate* are the map-side processing bytes/second per operator type.
	cpuRateExtract = 90e6
	cpuRateGroupby = 55e6
	cpuRateJoin    = 35e6
	// sortFactor scales the reduce-side merge-sort n·log(n) term.
	sortFactor = 0.30
	// noiseSigma is the sigma of the per-task log-normal noise.
	noiseSigma = 0.08
)

// CostModel produces task durations. It is deterministic given its seed:
// the i-th call sequence yields identical durations across runs.
type CostModel struct {
	rng *sim.RNG
}

// NewDefaultCostModel builds a model whose noise stream is seed's.
func NewDefaultCostModel(seed uint64) *CostModel {
	return &CostModel{rng: sim.New(seed)}
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
func cpuRate(op plan.JobType) float64 {
	switch op {
	case plan.Join:
		return cpuRateJoin
	case plan.Groupby:
		return cpuRateGroupby
	default:
		return cpuRateExtract
	}
}

// Expected returns the noise-free duration in seconds for a task — the
// model's mean behaviour, exposed for tests and calibration. It prices a
// task on a nominal node; the simulator applies cluster.Config.NodeFactors.
func (m *CostModel) Expected(t TaskSpec) float64 {
	var sec float64
	if !t.Reduce {
		// Map: read input from disk, process, spill output locally.
		sec = startupSec +
			t.InBytes/diskBW +
			t.InBytes/cpuRate(t.Op) +
			t.OutBytes/diskBW
	} else {
		// Reduce: shuffle over network, merge-sort (n·log n in 64 MB
		// segments), reduce-side processing, write output.
		segments := 1 + t.InBytes/(64<<20)
		sortSec := sortFactor * (t.InBytes / diskBW) * math.Log2(1+segments)
		sec = startupSec +
			t.InBytes/netBW +
			sortSec +
			t.InBytes/cpuRate(t.Op) +
			t.OutBytes/diskBW
	}
	// Joins pay an extra probe/materialisation cost proportional to the
	// produced volume — the data growth the paper's P(1-P) feature tracks.
	if t.Op == plan.Join {
		sec += 0.4 * t.OutBytes / diskBW
	}
	return sec
}

// Duration returns the noisy observed duration in seconds for a task.
// Consecutive calls consume the model's deterministic noise stream.
func (m *CostModel) Duration(t TaskSpec) float64 {
	return m.Expected(t) * m.rng.LogNormal(0, noiseSigma)
}
