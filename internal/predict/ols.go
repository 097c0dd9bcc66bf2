package predict

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"saqp/internal/core/floats"
)

// Model is a fitted linear model. Theta[0] is the intercept; Theta[1:]
// correspond to the feature vector positions.
type Model struct {
	Theta []float64
}

// ErrSingular is returned when the normal equations cannot be solved
// (collinear features or too few samples).
var ErrSingular = errors.New("predict: singular design matrix")

// ErrUnderdetermined is returned while an accumulator holds fewer samples
// than the model has coefficients.
var ErrUnderdetermined = errors.New("predict: fewer samples than coefficients")

// RelativeWeight is the weight 1/t^1.5 (t = |target|, floored at 1e-6) that
// biases least squares toward *relative* residuals. Execution times span
// three orders of magnitude across a query corpus; unweighted OLS would
// tune the model to the biggest jobs and grossly over-predict the small
// ones, while the paper's accuracy metric (average relative error) treats
// all jobs equally. The 1.5 exponent balances the two regimes.
func RelativeWeight(target float64) float64 {
	t := math.Abs(target)
	if t < 1e-6 {
		t = 1e-6
	}
	return 1 / (t * math.Sqrt(t))
}

// ErrNonFinite is returned (wrapped) by Normal.Add for a sample whose
// features, target or weight include a NaN or an infinity: one such
// sample would poison the accumulator, and every later Solve, for good.
var ErrNonFinite = errors.New("predict: non-finite sample")

// Normal accumulates the weighted normal equations XᵀWXθ = XᵀWy one
// sample at a time. It is the only place a sample meets the Gram matrix:
// the batch fitters Add every sample and Solve once, the online registry
// (internal/learn) Adds as feedback arrives and solves on demand, so a
// stream yields the same coefficients — to the bit — whichever way it is
// fed. The zero value is an empty accumulator; an intercept column is
// added internally and the width is fixed by the first sample.
type Normal struct {
	xtx [][]float64 // XᵀWX, k×k
	xty []float64   // XᵀWy
	row []float64   // scratch: the current sample with its intercept
	n   int

	// The solver's scratch, allocated with xtx so a solve never
	// allocates: the augmented matrix [XᵀWX | XᵀWy] (k×(k+1), row-major),
	// its row permutation, and θ, which with err answers for the samples
	// added so far while solved is set — that is, until the next Add.
	aug    []float64
	perm   []int
	theta  []float64
	err    error
	solved bool
}

// N returns how many samples have been added.
func (a *Normal) N() int { return a.n }

// Add applies one sample's rank-1 update. A sample whose width differs
// from the first one's, or that holds a non-finite value (ErrNonFinite),
// is rejected and leaves the accumulator unchanged.
func (a *Normal) Add(features []float64, target, weight float64) error {
	if nonFinite(target) || nonFinite(weight) || slices.ContainsFunc(features, nonFinite) {
		return fmt.Errorf("%w: features %v, target %v, weight %v", ErrNonFinite, features, target, weight)
	}
	k := len(features) + 1
	if a.xtx == nil {
		a.xtx = make([][]float64, k)
		for i := range a.xtx {
			a.xtx[i] = make([]float64, k)
		}
		a.xty = make([]float64, k)
		a.row = make([]float64, k)
		a.aug = make([]float64, k*(k+1))
		a.perm = make([]int, k)
		a.theta = make([]float64, k)
	}
	if k != len(a.row) {
		return fmt.Errorf("predict: inconsistent feature width %d vs %d", k, len(a.row))
	}
	a.row[0] = 1
	copy(a.row[1:], features)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			a.xtx[i][j] += weight * a.row[i] * a.row[j]
		}
		a.xty[i] += weight * a.row[i] * target
	}
	a.n++
	a.solved = false
	return nil
}

// nonFinite reports whether v is a NaN or an infinity.
func nonFinite(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// Solve fits the accumulated samples: ErrUnderdetermined while there are
// fewer samples than coefficients, ErrSingular when elimination fails.
// The accumulator is not consumed: more samples may follow. The model is
// a copy of the solution, so a caller may keep it as a frozen snapshot
// that later Adds never mutate; it must be treated as read-only.
func (a *Normal) Solve() (*Model, error) {
	theta, err := a.solution()
	if err != nil {
		return nil, err
	}
	return &Model{Theta: slices.Clone(theta)}, nil
}

// solution returns θ for the samples added so far, solving only when an
// Add came since the last solve. The slice is the accumulator's own
// scratch: valid until the next Add, and not to be written.
func (a *Normal) solution() ([]float64, error) {
	if !a.solved {
		a.err, a.solved = a.solve(), true
	}
	if a.err != nil {
		return nil, a.err
	}
	return a.theta, nil
}

// solve solves XᵀWX·θ = XᵀWy into a.theta by Gaussian elimination with
// partial pivoting on an augmented copy of the Gram matrix; a row swap
// swaps two entries of the row permutation rather than two rows. A tiny
// ridge term (1e-9, relative to each diagonal entry so units don't
// matter) keeps near-collinear workload features solvable without
// visibly biasing coefficients.
func (a *Normal) solve() error {
	n := len(a.row)
	if a.n == 0 || a.n < n {
		return ErrUnderdetermined
	}
	w := n + 1
	m := a.aug
	for i := 0; i < n; i++ {
		r := m[i*w : i*w+w]
		copy(r, a.xtx[i])
		r[n] = a.xty[i]
		r[i] *= 1 + 1e-9
		if floats.ApproxEqual(r[i], 0, 1e-12) {
			r[i] = 1e-12
		}
		a.perm[i] = i * w
	}
	// Row i of the eliminated matrix starts at m[p[i]].
	p := a.perm
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[p[r]+col]) > math.Abs(m[p[piv]+col]) {
				piv = r
			}
		}
		if math.Abs(m[p[piv]+col]) < 1e-300 {
			return ErrSingular
		}
		p[col], p[piv] = p[piv], p[col]
		// Eliminate below.
		top := m[p[col] : p[col]+w]
		for r := col + 1; r < n; r++ {
			row := m[p[r] : p[r]+w]
			f := row[col] / top[col]
			for c := col; c <= n; c++ {
				row[c] -= f * top[c]
			}
		}
	}
	x := a.theta
	for i := n - 1; i >= 0; i-- {
		row := m[p[i] : p[i]+w]
		s := row[n]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	if slices.ContainsFunc(x, nonFinite) {
		return ErrSingular
	}
	return nil
}

// Predict evaluates the model on one feature vector. The vector must
// have exactly len(Theta)-1 entries — the width the model was fitted
// on; any mismatch returns 0 rather than a silently truncated (extra
// features dropped) or padded (missing features treated as zero)
// estimate. Predict runs once per candidate task during scheduling, so
// it must not allocate.
//
//saqp:hotpath
func (m *Model) Predict(features []float64) float64 {
	if len(features)+1 != len(m.Theta) {
		return 0
	}
	y := m.Theta[0]
	for i, f := range features {
		y += m.Theta[i+1] * f
	}
	return y
}
