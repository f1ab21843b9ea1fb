package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks — numpy's default and
// statistics.quantiles(method="inclusive"). xs need not be sorted and
// is not modified; an empty xs gives NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) does by default (the "exclusive"
// method): the rule the spread of repeated runs is judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
