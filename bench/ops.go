package main

import (
	"fmt"
	"math/rand"

	"saqp"
	"saqp/internal/workload"
)

// opSet is a workload's pre-generated input: the SQL texts, the
// ground-truth simulation seeds each text is submitted with, and the
// order in which ops draw texts. The program under test sees only a text
// and a seed per op.
type opSet struct {
	texts []string
	// seeds holds perText simulation seeds for each text, text-major; the
	// oracle's table is indexed alike. Like the texts they do not depend on
	// the run seed: est_err is a mean over the (text, seed) pairs drawn,
	// and re-drawing the pairs per run moved it by 0.5–1.7 % between run
	// seeds, against a bound of 2 %.
	seeds   []uint64
	perText int
	// seq is the text drawn by op number k, as seq[k mod len(seq)], and
	// rot where each text's walk over its seeds starts; both are the run
	// seed's.
	seq []int32
	rot int
}

// at returns op number k's (text, seed) pair: an index into seeds, which
// is also the pair's slot in the oracle's table. A text's draws walk its
// seeds: where seq is a cycle that draws every text once, by one seed per
// pass; where seq is as long as the run, with the position in it.
func (o *opSet) at(k int) (pair int) {
	pass, pos := k/len(o.seq), k%len(o.seq)
	return int(o.seq[pos])*o.perText + (pass+pos+o.rot)%o.perText
}

// sql returns a pair's text.
func (o *opSet) sql(pair int) string { return o.texts[pair/o.perText] }

// newOpSet gives each text perText simulation seeds and takes from the
// run seed where the walks over them start.
func newOpSet(seed uint64, texts []string, perText int) opSet {
	o := opSet{texts: texts, perText: perText, seeds: make([]uint64, len(texts)*perText),
		rot: int(splitmix64(seed) >> 33)}
	for i := range o.seeds {
		o.seeds[i] = splitmix64(poolSeed<<24 + uint64(i))
	}
	return o
}

const (
	// coldTexts is how many distinct generated texts serve_cold cycles and
	// net_mixed draws from — 16× the default 256-entry plan cache.
	coldTexts = 4096
	// poolSeed generates those texts, and every workload's simulation
	// seeds, whatever the run seed: like TPC-H's query set (and
	// batch_tpch's data), the pool is fixed, and the run seed decides the
	// order its (text, seed) pairs are drawn in. Re-drawing the pool per
	// run moved allocs_per_op by 1–4 % and est_err by 2–7 % between seeds
	// — the sampling noise of 4 096 texts, wider than those metrics'
	// bounds.
	poolSeed = 1
	// zipfS is net_mixed's popularity skew.
	zipfS = 1.1
	// hotSeedsPerText and poolSeedsPerText are how many simulation seeds
	// each of serve_hot's seven texts and each pool text is submitted
	// with; the oracle simulates every pair before timing starts.
	hotSeedsPerText  = 4096
	poolSeedsPerText = 16
)

// splitmix64 is the SplitMix64 finalizer, used to derive per-text
// simulation seeds from the run seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// tpchOps is serve_hot's input: the seven canonical TPC-H texts,
// round-robin.
func tpchOps(seed uint64, _ int) (opSet, error) {
	var texts []string
	for _, n := range tpchNames {
		sql, err := saqp.TPCHSQL(n)
		if err != nil {
			return opSet{}, err
		}
		texts = append(texts, sql)
	}
	o := newOpSet(seed, texts, hotSeedsPerText)
	o.seq = identitySeq(len(texts))
	return o, nil
}

// identitySeq is the order 0, 1, … n−1.
func identitySeq(n int) []int32 {
	seq := make([]int32, n)
	for i := range seq {
		seq[i] = int32(i)
	}
	return seq
}

// generatedTexts draws n distinct (by normalized form) query texts from
// workload.NewGenerator(seed), keeping only texts the framework compiles
// and estimates, so that no op of a workload built on them can fail.
func generatedTexts(seed uint64, n int) ([]string, error) {
	f, err := saqp.NewFramework(saqp.Options{})
	if err != nil {
		return nil, err
	}
	g := workload.NewGenerator(seed)
	seen := make(map[string]bool, n)
	texts := make([]string, 0, n)
	for tries := 0; len(texts) < n; tries++ {
		if tries > 64*n {
			return nil, fmt.Errorf("generator yielded only %d distinct texts in %d draws", len(texts), tries)
		}
		q, _, err := g.RandomQuery()
		if err != nil {
			continue
		}
		sql := q.String()
		if seen[sql] {
			continue
		}
		seen[sql] = true
		d, err := f.Compile(sql)
		if err != nil {
			continue
		}
		if _, err := f.Estimate(d); err != nil {
			continue
		}
		texts = append(texts, sql)
	}
	return texts, nil
}

// coldOps is serve_cold's input: the pool cycled in an order the run
// seed shuffles, so every lookup's reuse distance (4 096) exceeds the
// cache.
func coldOps(seed uint64, _ int) (opSet, error) {
	texts, err := generatedTexts(poolSeed, coldTexts)
	if err != nil {
		return opSet{}, err
	}
	o := newOpSet(seed, texts, poolSeedsPerText)
	o.seq = make([]int32, len(texts))
	for i, t := range rand.New(rand.NewSource(int64(seed))).Perm(len(texts)) {
		o.seq[i] = int32(t)
	}
	return o, nil
}

// zipfSeq draws length text indices in [0, nTexts) with Zipf(zipfS)
// popularity; index 0 is the most popular.
func zipfSeq(seed uint64, nTexts, length int) []int32 {
	r := rand.New(rand.NewSource(int64(seed)))
	z := rand.NewZipf(r, zipfS, 1, uint64(nTexts-1))
	seq := make([]int32, length)
	for i := range seq {
		seq[i] = int32(z.Uint64())
	}
	return seq
}

// zipfOps is net_mixed's input: length draws from the pool by zipfSeq,
// the pool's first text the most popular. Which texts are popular is
// thus the same for every run seed; the seed decides when each is drawn.
func zipfOps(seed uint64, length int) (opSet, error) {
	texts, err := generatedTexts(poolSeed, coldTexts)
	if err != nil {
		return opSet{}, err
	}
	o := newOpSet(seed, texts, poolSeedsPerText)
	o.seq = zipfSeq(seed, len(texts), length)
	return o, nil
}
