package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail may be read at, highest
// first. A tail is reported at the highest one that leaves at least
// minBeyond samples above it, so every tail rests on the same evidence.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 75, 50}

const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank returns the nearest-rank percentile p (0..100) of ascending xs
// and the 1-based rank it was read at.
func rank(xs []float64, p float64) (float64, int) {
	k := int(math.Ceil(p / 100 * float64(len(xs))))
	if k < 1 {
		k = 1
	}
	return xs[k-1], k
}

// median returns the median of xs (the mean of the middle pair for even
// counts), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is a latency tail: the value at the highest ladder percentile with
// at least minBeyond samples beyond it, which percentile that was, and the
// sample count. With fewer than 2*minBeyond samples no percentile above
// the median qualifies and the tail is the median itself.
type tail struct {
	Value float64
	P     float64
	N     int
}

func tailOf(xs []float64) tail {
	if len(xs) == 0 {
		return tail{}
	}
	s := sorted(xs)
	for _, p := range tailLadder {
		if v, k := rank(s, p); len(s)-k >= minBeyond {
			return tail{Value: v, P: p, N: len(s)}
		}
	}
	return tail{Value: median(s), P: 50, N: len(s)}
}

// percentile returns the nearest-rank percentile p of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := rank(sorted(xs), p)
	return v
}

// mean returns the arithmetic mean of xs, or 0 for no samples.
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

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
