package main

import (
	"math"
	"sort"
	"time"
)

// samples collects one timing series in milliseconds.
type samples struct {
	xs     []float64
	sorted bool
}

func (s *samples) add(ms float64) {
	s.xs = append(s.xs, ms)
	s.sorted = false
}

func (s *samples) addDur(d time.Duration) { s.add(durMS(d)) }

func (s *samples) merge(o *samples) {
	s.xs = append(s.xs, o.xs...)
	s.sorted = false
}

func (s *samples) n() int { return len(s.xs) }

// q returns the p-quantile (0 < p ≤ 1) by nearest rank; 0 with no samples.
func (s *samples) q(p float64) float64 {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	return quantile(s.xs, p)
}

// quantile is the nearest-rank p-quantile of an ascending slice: the
// smallest value with at least a fraction p of the samples at or below it.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

// tailLevels are the percentiles a tail timing may report, highest first.
var tailLevels = []float64{0.99, 0.95, 0.9, 0.75, 0.5}

// tailPercentile returns the highest percentile, at most want, that still
// has at least ten samples beyond it among n: a p99 needs 1000 samples, a
// p95 200. Below 20 samples it returns the median.
func tailPercentile(n int, want float64) float64 {
	for _, p := range tailLevels {
		if p > want {
			continue
		}
		if float64(n)*(1-p) >= 10-1e-9 {
			return p
		}
	}
	return 0.5
}

// median returns the middle value of xs (the mean of the middle two for an
// even count); 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
