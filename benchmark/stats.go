package main

import (
	"math"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (the mean of the middle two for an
// even count); 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile, p in (0, 1].
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// highTail returns the highest sample that still has at least ten
// samples beyond it, the tail the choosing-metrics guide asks for; with
// too few samples for that it falls back to the median.
func highTail(v []float64) float64 {
	s := sortedCopy(v)
	if i := len(s) - 11; i > len(s)/2 {
		return s[i]
	}
	return median(s)
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the
// exclusive method), which is what the perf gate computes spreads with.
// Fewer than two samples have no spread: all three quartiles are the
// sample.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}
