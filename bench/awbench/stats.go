package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match a reader's own check. A single
// sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// percentile is the nearest-rank p-th percentile: the smallest sample
// with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// tailLadder is the set of tail percentiles a latency may be reported
// at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 80}

// tailPercentile picks the highest percentile of the ladder that leaves
// at least ten samples beyond it, so the reported tail is measured, not
// extrapolated from a handful of points. It returns 0 when n is too
// small for any of them.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// stat summarizes one metric of one workload: the reported value, the
// quartiles that give its spread, the sample count behind the value, and
// the samples the quartiles come from.
type stat struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// summarize reports the median of per-round samples with their
// quartiles.
func summarize(unit string, samples []float64) stat {
	q1, q3 := quartiles(samples)
	return stat{Unit: unit, Value: median(samples), Q1: q1, Q3: q3, N: len(samples), Samples: samples}
}

// summarizeMean reports the mean of per-round samples with their
// quartiles: the run's measured time over its rounds. run_s uses it
// because this VM's host switches between a fast and a slow state for
// seconds to minutes at a time, so a run's rounds fall into two clusters.
// Their median jumps from one cluster to the other as the slow share
// crosses half, while the mean moves in step with that share.
func summarizeMean(unit string, samples []float64) stat {
	s := summarize(unit, samples)
	sum := 0.0
	for _, x := range samples {
		sum += x
	}
	s.Value = sum / float64(len(samples))
	return s
}

// spread is the quartile distance as a share of the value.
func (s stat) spread() float64 {
	if s.Value == 0 {
		if s.Q3 == s.Q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Value)
}
