package predict

import (
	"errors"
	"fmt"
	"math"

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

// Normal accumulates the weighted normal equations XᵀWXθ = XᵀWy one
// sample at a time. It is the only place a sample meets the Gram matrix:
// the batch fitters Add every sample and Solve once, the online registry
// (internal/learn) Adds as feedback arrives and Solves on demand, so a
// stream yields the same coefficients — to the bit — whichever way it is
// fed. The zero value is an empty accumulator; an intercept column is
// added internally and the width is fixed by the first sample.
type Normal struct {
	xtx [][]float64 // XᵀWX, k×k
	xty []float64   // XᵀWy
	row []float64   // scratch: the current sample with its intercept
	n   int

	solved *Model // Solve's result, until the next Add
}

// N returns how many samples have been added.
func (a *Normal) N() int { return a.n }

// Add applies one sample's rank-1 update. A sample whose width differs
// from the first one's is rejected and leaves the accumulator unchanged.
func (a *Normal) Add(features []float64, target, weight float64) error {
	k := len(features) + 1
	if a.xtx == nil {
		a.xtx = make([][]float64, k)
		for i := range a.xtx {
			a.xtx[i] = make([]float64, k)
		}
		a.xty = make([]float64, k)
		a.row = make([]float64, k)
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
	a.solved = nil
	return nil
}

// Solve fits the accumulated samples: ErrUnderdetermined while there are
// fewer samples than coefficients, ErrSingular when elimination fails.
// The accumulator is not consumed: more samples may follow, and until one
// does Solve returns the same model. A later Add replaces — never mutates
// — that model, so a caller may keep it as a frozen snapshot; it must be
// treated as read-only.
func (a *Normal) Solve() (*Model, error) {
	if a.solved != nil {
		return a.solved, nil
	}
	if a.n == 0 || a.n < len(a.row) {
		return nil, ErrUnderdetermined
	}
	theta, err := a.solve(a.xty)
	if err != nil {
		return nil, err
	}
	a.solved = &Model{Theta: theta}
	return a.solved, nil
}

// solve solves XᵀWX·θ = rhs by Gaussian elimination with partial pivoting
// on an augmented copy of the Gram matrix. A tiny ridge term (1e-9,
// relative to each diagonal entry so units don't matter) keeps
// near-collinear workload features solvable without visibly biasing
// coefficients.
func (a *Normal) solve(rhs []float64) ([]float64, error) {
	n := len(rhs)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n+1)
		copy(m[i], a.xtx[i])
		m[i][n] = rhs[i]
		m[i][i] *= 1 + 1e-9
		if floats.ApproxEqual(m[i][i], 0, 1e-12) {
			m[i][i] = 1e-12
		}
	}
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[p][col]) {
				p = r
			}
		}
		if math.Abs(m[p][col]) < 1e-300 {
			return nil, ErrSingular
		}
		m[col], m[p] = m[p], m[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := m[i][n]
		for j := i + 1; j < n; j++ {
			s -= m[i][j] * x[j]
		}
		x[i] = s / m[i][i]
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, ErrSingular
		}
	}
	return x, nil
}

// ErrFeatureWidth is returned (wrapped) by PredictChecked when the
// feature vector's width does not match the fitted coefficient count.
var ErrFeatureWidth = errors.New("predict: feature width does not match fitted model")

// Predict evaluates the model on one feature vector. The vector must
// have exactly len(Theta)-1 entries — the width the model was fitted
// on; any mismatch returns 0 rather than a silently truncated (extra
// features dropped) or padded (missing features treated as zero)
// estimate. Use PredictChecked when the caller needs to distinguish a
// genuine zero prediction from a width error. Predict runs once per
// candidate task during scheduling, so it must not allocate — the
// width-error formatting lives in PredictChecked, off the hot path.
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

// PredictChecked evaluates the model on one feature vector, returning a
// wrapped ErrFeatureWidth when the vector is wider or narrower than the
// fitted coefficient count.
func (m *Model) PredictChecked(features []float64) (float64, error) {
	if len(features)+1 != len(m.Theta) {
		return 0, fmt.Errorf("%w: got %d features, model fits %d",
			ErrFeatureWidth, len(features), len(m.Theta)-1)
	}
	return m.Predict(features), nil
}
