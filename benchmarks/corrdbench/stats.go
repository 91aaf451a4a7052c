package main

import (
	"fmt"
	"math"
	"sort"

	"github.com/streamagg/correlated/client"
)

// percentileLadder is the set of percentiles the harness may report.
var percentileLadder = []float64{50, 90, 95, 99, 99.9}

// supportedPercentile returns the highest ladder percentile that still
// has at least ten of n samples beyond it (0 when none has): a tail read
// off fewer samples is one or two requests, not a distribution.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		// n·(100−p)/100 ≥ 10; the slack absorbs 100−99.9 not being 0.1.
		if float64(n)*(100-p) >= 1000-1e-6 {
			best = p
		}
	}
	return best
}

// percentile reads the nearest-rank p-th percentile off ascending
// samples, and refuses one the sample count does not support.
func percentile(sorted []float64, p float64) (float64, error) {
	if sup := supportedPercentile(len(sorted)); p > sup {
		return 0, fmt.Errorf("p%g needs %d samples, have %d (highest supported: p%g)",
			p, int(math.Ceil(1000/(100-p))), len(sorted), sup)
	}
	idx := int(math.Ceil(p/100*float64(len(sorted))-1e-9)) - 1
	return sorted[idx], nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(v, n=4) does (the exclusive method),
// so the spreads printed here are the ones the driver computes.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	switch m {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func median(v []float64) float64 {
	_, med, _ := quartiles(v)
	return med
}

// spread is the interquartile distance as a share of the median — the
// steadiness figure a metric's bound is judged against.
func spread(v []float64) float64 {
	q1, med, q3 := quartiles(v)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// largestGap is the largest relative distance between any two values.
func largestGap(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	if lo == 0 {
		return 0
	}
	return (hi - lo) / math.Abs(lo)
}

// stageDelta is the observation count and mean, in milliseconds, of one
// pipeline stage between two /v1/stats snapshots. The server reports
// cumulative count and mean, so the phase mean is the difference of the
// two sums over the difference of the counts.
func stageDelta(a, b client.StageStats) (n uint64, avgMs float64) {
	if b.Count <= a.Count {
		return 0, 0
	}
	n = b.Count - a.Count
	return n, (float64(b.Count)*b.AvgMs - float64(a.Count)*a.AvgMs) / float64(n)
}

// ratio is a/b, and 0 when b is 0 (a counter that never moved).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
