package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
// Fewer, and the tail is one or two outliers rather than a percentile.
const minBeyond = 10

// Quantile is one reported percentile: the value, the quantile actually
// used (q itself, or lower when the sample is too small for q) and the
// sample count behind it.
type Quantile struct {
	Value float64
	Q     float64
	N     int
}

// percentile reports the q-quantile of xs by nearest rank, lowered to the
// highest quantile that still has minBeyond samples beyond it. NaN samples
// sort last, so they count as beyond every finite value; callers record a
// failed request as +Inf for the same reason. With fewer than minBeyond+1
// samples nothing qualifies and Value is NaN.
func percentile(xs []float64, q float64) Quantile {
	n := len(xs)
	if n <= minBeyond {
		return Quantile{Value: math.NaN(), Q: q, N: n}
	}
	// rank r (1-based) leaves n-r samples beyond it.
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if n-r < minBeyond {
		r = n - minBeyond
		q = float64(r) / float64(n)
	}
	s := sortedCopy(xs)
	return Quantile{Value: s[r-1], Q: q, N: n}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Slice(s, func(i, j int) bool {
		a, b := s[i], s[j]
		if math.IsNaN(a) {
			return false
		}
		return math.IsNaN(b) || a < b
	})
	return s
}

// median is the middle value (mean of the two middle values for an even
// count); NaN for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
