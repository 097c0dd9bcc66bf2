package learn

import (
	"math"

	"saqp/internal/predict"
)

// Weighting selects the per-sample weight scheme an online Learner
// applies, mirroring the batch fitters in internal/predict.
type Weighting int

const (
	// Uniform weights every sample equally — the online counterpart of
	// predict.Fit.
	Uniform Weighting = iota
	// Relative weights each sample by predict.RelativeWeight — the online
	// counterpart of predict.FitRelative, tuning the fit toward relative
	// rather than absolute residuals.
	Relative
)

// ErrUnderdetermined is returned by Model and the prediction methods
// while the learner has seen fewer samples than it has coefficients.
var ErrUnderdetermined = predict.ErrUnderdetermined

// zCritical is the two-sided 95% normal quantile used for the
// confidence band returned by PredictWithInterval.
const zCritical = 1.96

// Learner is a recursive-least-squares online fitter in information
// form: a predict.Normal — the accumulator the batch fitters are
// themselves written on — fed one sample at a time and solved lazily,
// plus the prequential residuals behind its confidence band. A Learner
// fed N samples therefore holds the very state a batch Fit/FitRelative
// over the same stream solves, which is the property the RLS≡OLS tests
// pin down.
//
// A Learner is not goroutine-safe; Registry serialises access.
type Learner struct {
	weighting Weighting
	acc       predict.Normal

	// Prequential (predict-then-absorb) residual accumulation: each
	// sample is scored by the model fitted to the samples before it,
	// giving an honest out-of-sample variance estimate for the
	// confidence band.
	sqErr float64 // Σ w·(pred−target)²
	preqN int
}

// NewLearner returns an empty learner with the given weighting.
func NewLearner(w Weighting) *Learner { return &Learner{weighting: w} }

// weight is the per-sample weight the learner's scheme assigns a target.
func (l *Learner) weight(target float64) float64 {
	if l.weighting == Relative {
		return predict.RelativeWeight(target)
	}
	return 1
}

// N returns how many samples the learner has absorbed.
func (l *Learner) N() int { return l.acc.N() }

// Observe absorbs one (features, target) sample: it first scores the
// sample against the current model (prequential residual for the
// confidence band), then adds it to the accumulated normal equations.
// The feature width is fixed by the first sample; a later sample with a
// different width is rejected.
func (l *Learner) Observe(features []float64, target float64) error {
	w := l.weight(target)
	if m, err := l.Model(); err == nil {
		if pred, perr := m.PredictChecked(features); perr == nil {
			e := pred - target
			l.sqErr += w * e * e
			l.preqN++
		}
	}
	return l.acc.Add(features, target, w)
}

// Model returns the fit of the samples absorbed so far (predict.Normal
// solves once per absorbed sample at most). The model is read-only: a
// later Observe replaces, never mutates, it, which is what lets the
// registry freeze a promoted champion while the learner keeps absorbing.
func (l *Learner) Model() (*predict.Model, error) { return l.acc.Solve() }

// PredictWithInterval returns the point prediction and the half-width
// of its 95% confidence band: z·√(s²·(1/w_x + xᵀ(XᵀWX)⁻¹x)), where s²
// is the prequential weighted residual variance, 1/w_x restores the
// heteroscedastic noise scale at the predicted magnitude (Relative
// weighting models noise growing with the target), and the quadratic
// form is the leverage of x under the accumulated design. The width is
// 0 while no prequential residuals have been collected.
func (l *Learner) PredictWithInterval(features []float64) (pred, halfWidth float64, err error) {
	m, err := l.Model()
	if err != nil {
		return 0, 0, err
	}
	pred, err = m.PredictChecked(features)
	if err != nil {
		return 0, 0, err
	}
	if l.preqN == 0 {
		return pred, 0, nil
	}
	s2 := l.sqErr / float64(l.preqN)
	leverage, err := l.acc.Leverage(features)
	if err != nil {
		return pred, 0, nil
	}
	if leverage < 0 {
		leverage = 0
	}
	v := s2 * (1/l.weight(pred) + leverage)
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return pred, 0, nil
	}
	return pred, zCritical * math.Sqrt(v), nil
}
