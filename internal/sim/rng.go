package sim

import "math"

// RNG is a deterministic SplitMix64 pseudo-random number generator.
// The zero value is a valid generator seeded with 0; prefer New.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed. Two generators constructed with
// the same seed produce identical streams.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Fork derives an independent child generator from the current state.
// The parent advances by one step, so successive Fork calls yield
// differently-seeded children.
func (r *RNG) Fork() *RNG {
	return New(r.Uint64())
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *RNG) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Intn returns a uniform pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with n <= 0")
	}
	return int(r.Int63n(int64(n)))
}

// Int63n returns a uniform pseudo-random int64 in [0, n). It panics if n <= 0.
// Modulo bias is removed by rejection sampling.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n called with n <= 0")
	}
	if n&(n-1) == 0 { // power of two
		return r.Int63() & (n - 1)
	}
	limit := int63nMax(n)
	v := r.Int63()
	for v > limit {
		v = r.Int63()
	}
	return v % n
}

// int63nMax is the largest Int63 draw that Int63n(n) keeps for an n that is
// not a power of two: a draw above it is rejected, since its residue mod n
// would make the low residues likelier.
func int63nMax(n int64) int64 { return int64((1 << 63) - 1 - (1<<63)%uint64(n)) }

// FillInt63n sets keys[i] to Int63n(n) for i = 0, 1, …: the same draws in
// the same order, with the rejection bound computed once for the slice
// instead of once per draw. It panics if n <= 0.
func (r *RNG) FillInt63n(keys []int64, n int64) {
	if n <= 0 {
		panic("sim: FillInt63n called with n <= 0")
	}
	if n&(n-1) == 0 {
		for i := range keys {
			keys[i] = r.Int63() & (n - 1)
		}
		return
	}
	limit := int63nMax(n)
	for i := range keys {
		v := r.Int63()
		for v > limit {
			v = r.Int63()
		}
		keys[i] = v % n
	}
}

// Float64 returns a uniform pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Range returns a uniform pseudo-random float64 in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n) as a slice.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Normal returns a normally distributed float64 with the given mean and
// standard deviation, via the Marsaglia polar method.
func (r *RNG) Normal(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNormal returns exp(Normal(mu, sigma)); used for multiplicative noise
// in the ground-truth cost model.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Exponential returns an exponentially distributed float64 with the given
// rate parameter lambda (mean 1/lambda). It panics if lambda <= 0.
func (r *RNG) Exponential(lambda float64) float64 {
	if lambda <= 0 {
		panic("sim: Exponential called with lambda <= 0")
	}
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u) / lambda
		}
	}
}
