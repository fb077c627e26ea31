package rng

import (
	"fmt"
	"math"
	"sort"
)

// Zipf samples ranks from a bounded Zipf (zeta) distribution over
// {0, 1, ..., n-1}: P(rank = i) proportional to 1/(i+1)^exponent.
//
// The simulator uses Zipf rank popularity for entities and for alias query
// volume, matching the heavy-tailed query-frequency distributions observed in
// real search logs — the property that makes Table I's camera tail collapse
// for the Wikipedia and random-walk baselines.
//
// For the catalog sizes in this repository (n <= a few thousand) an explicit
// cumulative table with binary search is both simple and fast (one Float64,
// one binary search per sample).
type Zipf struct {
	cdf []float64
}

// NewZipf builds a bounded Zipf sampler over n ranks with the given exponent.
// It panics if n <= 0 or exponent < 0.
func NewZipf(n int, exponent float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf called with n <= 0")
	}
	if exponent < 0 {
		panic("rng: NewZipf called with exponent < 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -exponent)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1.0 // guard against float drift
	return &Zipf{cdf: cdf}
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Sample draws a rank in [0, n) using randomness from src.
func (z *Zipf) Sample(src *Source) int {
	u := src.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// Prob returns the probability mass of rank i.
func (z *Zipf) Prob(i int) float64 {
	if i < 0 || i >= len(z.cdf) {
		return 0
	}
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}

// Weighted samples indices in proportion to arbitrary non-negative weights
// using Walker's alias method: O(n) construction, O(1) per sample.
type Weighted struct {
	prob  []float64
	alias []int
	total float64
}

// NewWeighted builds an alias-method sampler over the given weights.
// Weights must be non-negative with a positive sum.
func NewWeighted(weights []float64) (*Weighted, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("rng: NewWeighted called with no weights")
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("rng: weight %d is invalid (%v)", i, w)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("rng: NewWeighted requires a positive total weight")
	}

	w := &Weighted{
		prob:  make([]float64, n),
		alias: make([]int, n),
		total: total,
	}
	// Scale weights so the average bucket holds probability 1.
	scaled := make([]float64, n)
	for i, x := range weights {
		scaled[i] = x * float64(n) / total
	}
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, x := range scaled {
		if x < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		w.prob[s] = scaled[s]
		w.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Whatever remains gets probability 1 (float drift leaves a few).
	for _, i := range large {
		w.prob[i] = 1
		w.alias[i] = i
	}
	for _, i := range small {
		w.prob[i] = 1
		w.alias[i] = i
	}
	return w, nil
}

// MustWeighted is NewWeighted that panics on error, for statically known
// weight tables.
func MustWeighted(weights []float64) *Weighted {
	w, err := NewWeighted(weights)
	if err != nil {
		panic(err)
	}
	return w
}

// N returns the number of outcomes.
func (w *Weighted) N() int { return len(w.prob) }

// Total returns the sum of the original weights.
func (w *Weighted) Total() float64 { return w.total }

// Sample draws an index in proportion to its weight.
func (w *Weighted) Sample(src *Source) int {
	i := src.Intn(len(w.prob))
	if src.Float64() < w.prob[i] {
		return i
	}
	return w.alias[i]
}
