package main

import (
	"math"
	"sort"
)

// quantile is one order statistic of a sample, with the counts that say
// how far it can be trusted: N samples in all, Beyond of them above it.
type quantile struct {
	Value  float64
	N      int
	Beyond int
}

// minBeyond is the tail rule: a percentile is reported only when at least
// this many samples lie beyond it, so a p90 needs 100 samples.
const minBeyond = 10

// Reportable applies the tail rule.
func (q quantile) Reportable() bool { return q.N > 0 && q.Beyond >= minBeyond }

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs,
// which it does not modify. The value is the sample at rank ceil(p·n);
// Beyond counts the samples ranked above it.
func percentile(xs []float64, p float64) quantile {
	n := len(xs)
	if n == 0 {
		return quantile{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return quantile{Value: s[rank-1], N: n, Beyond: n - rank}
}

// median is the midpoint of xs (the mean of the two middle samples when
// n is even), used where a central value of a few repeats is wanted.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tally counts campaigns attempted and failed; a campaign fails when it
// returns an error or its report check does not hold.
type tally struct {
	attempted, failed int
}

// record counts one campaign.
func (t *tally) record(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// share is failed over attempted (0 when nothing was attempted).
func (t tally) share() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
