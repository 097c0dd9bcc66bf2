package cluster_test

import (
	"fmt"
	"math"
	"testing"

	"saqp/internal/cluster"
	"saqp/internal/sched"
	"saqp/internal/sim"
)

// The simulator held to queueing theory: one node with one map slot, no
// job initialisation delay and no dispatch overhead is a single server,
// and single-map queries with Poisson arrivals are its customers.

// poissonRun submits n single-map queries at Poisson arrivals of rate
// lambda, sized by size, to a single-server cluster under pol, and
// returns each query's size and response time in arrival order.
func poissonRun(t *testing.T, pol cluster.Scheduler, n int, lambda float64, rng *sim.RNG, size func() float64) (sizes, resp []float64) {
	t.Helper()
	s := cluster.New(cluster.Config{Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1}, pol)
	qs := make([]*cluster.Query, n)
	sizes = make([]float64, n)
	at := 0.0
	for i := range qs {
		at += rng.Exponential(lambda)
		sizes[i] = size()
		qs[i] = synthQuery(fmt.Sprint(i), []jobSpec{{id: "J1", maps: 1, mapSec: sizes[i]}})
		s.Submit(qs[i], at)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	resp = make([]float64, n)
	for i, q := range qs {
		resp[i] = q.ResponseTime()
	}
	return sizes, resp
}

// batchMeans returns the mean of xs and the half-width of its 99 %
// confidence interval from 20 consecutive batches, whose means are close
// to independent when a batch is much longer than the queue's relaxation
// time.
func batchMeans(xs []float64) (mean, half float64) {
	const batches = 20
	const t99 = 2.861 // Student's t, 0.995 quantile, 19 degrees of freedom
	size := len(xs) / batches
	var means [batches]float64
	for b := range means {
		for _, x := range xs[b*size : (b+1)*size] {
			means[b] += x
		}
		means[b] /= float64(size)
		mean += means[b] / batches
	}
	ss := 0.0
	for _, m := range means {
		ss += (m - mean) * (m - mean)
	}
	return mean, t99 * math.Sqrt(ss/(batches-1)/batches)
}

// TestSingleQueueHCSIsMM1: FIFO over exponential sizes of mean 1/μ at
// Poisson arrivals of rate λ is M/M/1, whose mean response is 1/(μ − λ).
// 10⁵ seeded queries at ρ = 0.5 and 0.8 must put it inside the 99 %
// batch-means interval of their mean response.
func TestSingleQueueHCSIsMM1(t *testing.T) {
	const mu = 1.0
	for _, rho := range []float64{0.5, 0.8} {
		lambda := rho * mu
		rng := sim.New(1)
		_, resp := poissonRun(t, sched.HCS{Queues: 1}, 100_000, lambda, rng, func() float64 { return rng.Exponential(mu) })
		mean, half := batchMeans(resp)
		want := 1 / (mu - lambda)
		t.Logf("ρ=%v: mean response %.4f ± %.4f, M/M/1 %.4f", rho, mean, half, want)
		if math.Abs(mean-want) > half {
			t.Errorf("ρ=%v: mean response %.4f ± %.4f (99 %%) misses M/M/1's 1/(μ−λ) = %.4f", rho, mean, half, want)
		}
	}
}

// TestSWRDIsNonPreemptivePriority: on single-map queries a query's WRD is
// its size, so SWRD over a few deterministic size classes is the
// non-preemptive priority queue, smaller sizes first and arrival order
// within a class. Cobham's M/G/1 formula gives class k's mean response
// s_k + W₀ / ((1 − σ_{k−1})(1 − σ_k)), where W₀ = Σ λ_i s_i² / 2 is the
// mean residual work and σ_k the load of classes 1..k. 10⁵ seeded
// queries must put each class's value inside the 99 % batch-means
// interval of its mean response.
func TestSWRDIsNonPreemptivePriority(t *testing.T) {
	const lambda = 0.7
	classes := []struct{ size, share float64 }{{0.5, 0.5}, {1, 0.3}, {2.5, 0.2}}
	rng := sim.New(1)
	sizes, resp := poissonRun(t, sched.SWRD{}, 100_000, lambda, rng, func() float64 {
		u := rng.Float64()
		for _, c := range classes[:len(classes)-1] {
			if u < c.share {
				return c.size
			}
			u -= c.share
		}
		return classes[len(classes)-1].size
	})
	w0 := 0.0
	for _, c := range classes {
		w0 += lambda * c.share * c.size * c.size / 2
	}
	sigma := 0.0
	for k, c := range classes {
		before := sigma
		sigma += lambda * c.share * c.size
		want := c.size + w0/((1-before)*(1-sigma))
		var class []float64
		for i, s := range sizes {
			if s == c.size {
				class = append(class, resp[i])
			}
		}
		mean, half := batchMeans(class)
		t.Logf("class %d (size %v, %d queries): mean response %.4f ± %.4f, Cobham %.4f", k, c.size, len(class), mean, half, want)
		if math.Abs(mean-want) > half {
			t.Errorf("class %d (size %v): mean response %.4f ± %.4f (99 %%) misses Cobham's %.4f", k, c.size, mean, half, want)
		}
	}
}
