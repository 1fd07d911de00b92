package main

import (
	"math"
	"time"
)

// Latency histogram geometry: buckets grow by 1% from 1µs, so 1621 of them
// reach 10s and any quantile is within about half a percent.
const (
	histMin     = float64(time.Microsecond)
	histGrowth  = 1.01
	histBuckets = 1621
)

// hist is a log-bucketed latency histogram. Recording into it costs no
// memory per request, so the benchmark's own bookkeeping stays out of the
// heap it measures however many requests a run makes.
type hist struct {
	counts [histBuckets]uint32
	n      int
}

func (h *hist) add(d time.Duration) {
	b := 0
	if float64(d) > histMin {
		b = min(int(math.Log(float64(d)/histMin)/math.Log(histGrowth)), histBuckets-1)
	}
	h.counts[b]++
	h.n++
}

// quantile returns the q-quantile in milliseconds, placed within its
// bucket by rank (NaN when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n-1)
	seen := 0.0
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < seen+float64(c) {
			frac := (rank - seen + 0.5) / float64(c)
			return histMin * math.Pow(histGrowth, float64(b)+frac) / float64(time.Millisecond)
		}
		seen += float64(c)
	}
	return histMin * math.Pow(histGrowth, histBuckets) / float64(time.Millisecond)
}
