package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail read off fewer samples is one or two
// outliers, not a distribution.
const minBeyond = 10

// percentile returns the Harrell–Davis estimate of the p-quantile of xs
// (0 < p < 1): a weighted mean of the order statistics, with the weights
// the p-th order statistic's distribution gives them. Their beta weights
// are replaced by the normal curve they approach at the sample sizes used
// here (a hundred and more). A single order statistic jumps when p falls
// where the samples of one point shape end and the next one's begin — and
// with a fixed shape mix per pass, p = 0.5 of 24 shapes always does; the
// weighted mean moves smoothly there. It refuses, with an error, any
// percentile with fewer than minBeyond samples above its nearest rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0,1)", p)
	}
	rank := int(math.Ceil(p * float64(n)))
	if beyond := n - rank; n == 0 || beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*p, n, max(beyond, 0), minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sd := math.Sqrt(p * (1 - p) / float64(n+2))
	cdf := func(x float64) float64 { return 0.5 * math.Erfc((p-x)/(sd*math.Sqrt2)) }
	var v, wsum float64
	prev := cdf(0)
	for i, x := range s {
		c := cdf(float64(i+1) / float64(n))
		v += (c - prev) * x
		wsum += c - prev
		prev = c
	}
	return v / wsum, nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count). It is for central values of small, explicitly
// repeated measurements — cold starts, passes, calibration windows — not
// for tails.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs,
// by the same method as Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), so recorded spreads match the ones the
// steadiness script computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// Rank i*(n+1)/4, clamped to [1, n-1] as Python clamps it.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
