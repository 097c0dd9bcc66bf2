package sim

import "math"

// Zipf generates Zipf-distributed integers in [0, n) where the probability
// of value k is proportional to 1/(v+k)^s. It uses rejection-inversion
// sampling (W. Hörmann & G. Derflinger, "Rejection-inversion to generate
// variates from monotone discrete distributions", ACM TOMACS 1996), the same
// method as math/rand.Zipf but self-contained and driven by this package's
// deterministic RNG.
//
// Zipf distributions model the key skew found in production analytic
// workloads: a few hot keys carry most tuples, which stresses the paper's
// histogram-based selectivity estimation (Section 3).
type Zipf struct {
	rng  *RNG
	imax float64
	v    float64
	q    float64
	s    float64

	oneMinusQ    float64
	oneMinusQInv float64
	hxm          float64
	hx0MinusHxm  float64
}

// NewZipf returns a Zipf generator over [0, n) with exponent s > 1 and
// shift v >= 1. It panics on invalid parameters.
func NewZipf(rng *RNG, s, v float64, n uint64) *Zipf {
	if s <= 1 || v < 1 || n == 0 {
		panic("sim: NewZipf requires s > 1, v >= 1, n > 0")
	}
	z := &Zipf{rng: rng, imax: float64(n - 1), v: v, q: s}
	z.oneMinusQ = 1 - z.q
	z.oneMinusQInv = 1 / z.oneMinusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0MinusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hInv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1)))
	return z
}

// h is the integral of the dominating density: ((v+x)^(1-q)) / (1-q).
func (z *Zipf) h(x float64) float64 {
	return math.Exp(z.oneMinusQ*math.Log(z.v+x)) * z.oneMinusQInv
}

// hInv is the inverse of h.
func (z *Zipf) hInv(x float64) float64 {
	return math.Exp(z.oneMinusQInv*math.Log(z.oneMinusQ*x)) - z.v
}

// Uint64 returns a Zipf-distributed value in [0, n).
func (z *Zipf) Uint64() uint64 {
	for {
		r := z.rng.Float64()
		ur := z.hxm + r*z.hx0MinusHxm
		x := z.hInv(ur)
		k := math.Floor(x + 0.5)
		if k-x <= z.s {
			return uint64(k)
		}
		if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
			return uint64(k)
		}
	}
}

// ClusteredKeys fills keys with keys drawn from [0, cardinality) that
// arrive in runs: identical keys are adjacent, modelling tables whose
// group-by keys are physically clustered on disk — the "clustered" case of
// Eq. 2 in the paper. Run lengths average around len(keys)/cardinality.
func ClusteredKeys(rng *RNG, keys []int64, cardinality int64) {
	if cardinality <= 0 {
		panic("sim: ClusteredKeys requires cardinality > 0")
	}
	n := len(keys)
	avgRun := max(1, 2*n/int(min(cardinality, int64(max(n, 1)))))
	for i := 0; i < n; {
		k := rng.Int63n(cardinality)
		run := 1 + rng.Intn(avgRun)
		for end := min(i+run, n); i < end; i++ {
			keys[i] = k
		}
	}
}
