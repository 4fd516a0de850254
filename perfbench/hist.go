package main

import (
	"math"
	"time"
)

// hist is a log-bucketed timing histogram for series too long to keep
// sample by sample (the embedded workload makes ~300k calls a second).
// Bucket b holds durations in [histGrowth^b, histGrowth^(b+1)) ns, so a
// quantile read back as its bucket's geometric midpoint is within half a
// percent of the exact value.
type hist struct {
	counts []uint64
	n      uint64
}

const (
	histGrowth  = 1.01
	histBuckets = 2400 // 1.01^2400 ns ≈ 2e10 ns: anything up to 20 s
)

var histLogGrowth = math.Log(histGrowth)

func newHist() *hist { return &hist{counts: make([]uint64, histBuckets)} }

func (h *hist) add(d time.Duration) {
	b := 0
	if d > 1 {
		b = int(math.Log(float64(d)) / histLogGrowth)
		if b >= histBuckets {
			b = histBuckets - 1
		}
	}
	h.counts[b]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// q returns the nearest-rank p-quantile in milliseconds; 0 when empty.
func (h *hist) q(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketMS(b)
		}
	}
	return bucketMS(histBuckets - 1)
}

// bucketMS is bucket b's geometric midpoint in milliseconds.
func bucketMS(b int) float64 {
	return math.Pow(histGrowth, float64(b)+0.5) / float64(time.Millisecond)
}
