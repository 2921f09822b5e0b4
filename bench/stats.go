package main

import (
	"math"
	"sort"
)

// percentile returns the q-th quantile (0 <= q <= 1) of sorted by the
// nearest-rank rule: the smallest sample such that at least q of the samples
// are <= it. Nearest-rank never interpolates, so every reported percentile
// is a latency some turn actually had.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value of vals (mean of the two middle values
// for an even count). vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sortedCopy(vals)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of vals with the same
// rule as Python's statistics.quantiles(values, n=4) (the "exclusive"
// method), which is what the benchmark's acceptance check uses.
func quartiles(vals []float64) (q1, q3 float64) {
	s := sortedCopy(vals)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		// Position k*(n+1)/4 in 1-based ranks, linearly interpolated; like
		// Python, only the rank is clamped to the sample range.
		j := k * (n + 1) / 4
		delta := k*(n+1) - j*4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// nsToSortedMs converts pooled nanosecond samples to sorted milliseconds.
func nsToSortedMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	sort.Float64s(out)
	return out
}
