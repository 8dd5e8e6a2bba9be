package main

import (
	"math"
	"math/rand"
	"sort"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs, so the
// result is always one of the measured values. It sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean is the geometric mean of positive ratios; non-positive entries
// are skipped (they cannot be logged).
func geomean(xs []float64) float64 {
	var s float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			s += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}

// reservoir keeps a uniform random sample of at most size values from an
// unbounded stream (Vitter's algorithm R), so percentiles of a
// multi-million-request stream come from exact measured values in bounded
// memory.
type reservoir struct {
	rng  *rand.Rand
	size int
	n    int64
	vals []float64
}

func newReservoir(size int, seed int64) *reservoir {
	return &reservoir{rng: rand.New(rand.NewSource(seed)), size: size}
}

func (r *reservoir) add(v float64) {
	r.n++
	if len(r.vals) < r.size {
		r.vals = append(r.vals, v)
		return
	}
	if j := r.rng.Int63n(r.n); j < int64(r.size) {
		r.vals[j] = v
	}
}
