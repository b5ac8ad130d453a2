package main

import (
	"math"
	"sort"
)

// sample is one operation's observations by metric name.
type sample map[string]float64

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the cut points Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method), so the
// spread -compare reports is the one the acceptance check computes.
// Fewer than two values have no spread: all three equal the median.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n < 2 {
		m := median(xs)
		return m, m, m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// tail returns the highest percentile of xs that still has ten samples
// beyond it (fewer when xs is short: half of them), and which
// percentile that is.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	beyond := min(10, n/2)
	return s[n-1-beyond], 100 * float64(n-beyond) / float64(n)
}

// medians folds a run of samples into one value per key.
func medians(ss []sample) sample {
	cols := map[string][]float64{}
	for _, s := range ss {
		for k, v := range s {
			cols[k] = append(cols[k], v)
		}
	}
	out := sample{}
	for k, v := range cols {
		out[k] = median(v)
	}
	return out
}

func column(ss []sample, key string) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		if v, ok := s[key]; ok {
			out = append(out, v)
		}
	}
	return out
}
