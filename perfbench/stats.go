package main

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// reportPercentiles are the percentiles a timing may be reported at, in
// increasing order.
var reportPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// highestPercentile returns the highest tail percentile of
// reportPercentiles that still has at least ten of n samples beyond it; the
// median is always reported. A tail percentile with fewer samples beyond it
// is one or two outliers, not a measurement.
func highestPercentile(n int) float64 {
	best := 50.0
	for _, p := range reportPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-6 { // tolerate float error in 100-p
			best = p
		}
	}
	return best
}

// percentile returns the p-th percentile of sorted by the nearest-rank rule.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// timing summarizes one set of latency samples under the percentile rule.
type timing struct {
	name    string
	sorted  []float64
	highest float64
}

// newTiming sorts a copy of samples. Failed operations are expected to be
// in samples as +Inf, so they count as missing any latency limit.
func newTiming(name string, samples []float64) timing {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return timing{name: name, sorted: s, highest: highestPercentile(len(s))}
}

// at returns percentile p, or an error when there are no samples or, for
// a tail percentile, fewer than ten lie beyond it.
func (t timing) at(p float64) (float64, error) {
	if len(t.sorted) == 0 || p > t.highest {
		return 0, fmt.Errorf("%s: p%g needs %d samples, have %d", t.name, p, int(math.Ceil(10/(1-p/100))), len(t.sorted))
	}
	return percentile(t.sorted, p), nil
}

// String states the sample count, the median and the highest percentile
// the sample count supports.
func (t timing) String() string {
	if len(t.sorted) == 0 {
		return t.name + ": no samples"
	}
	return fmt.Sprintf("%s: n=%d p50=%.4g p%g=%.4g", t.name, len(t.sorted),
		percentile(t.sorted, 50), t.highest, percentile(t.sorted, t.highest))
}

// median returns the median of xs (the mean of the middle two for an even
// count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// logHist is a fixed-size log-linear histogram of non-negative durations in
// nanoseconds: 16 sub-buckets per power of two, so a percentile read back
// is within about 6% of the true value. Per-event spans fire millions of
// times a run; the histogram keeps their percentiles without keeping them.
type logHist struct {
	counts [64 * 16]int64
	n      int64
}

func histBucket(ns int64) int {
	if ns < 16 {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1 // ns in [2^e, 2^(e+1))
	mant := int(uint64(ns)>>(e-4)) & 15
	return (e-3)*16 + mant
}

// bucketMid returns a representative value of bucket b.
func bucketMid(b int) float64 {
	if b < 16 {
		return float64(b)
	}
	e := b/16 + 3
	mant := b % 16
	lo := float64(uint64(16+mant) << (e - 4))
	return lo + float64(uint64(1)<<(e-4))/2
}

func (h *logHist) add(ns int64) {
	h.counts[histBucket(ns)]++
	h.n++
}

func (h *logHist) merge(o *logHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the p-th percentile in nanoseconds.
func (h *logHist) quantile(p float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := int64(math.Ceil(p / 100 * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketMid(b)
		}
	}
	return bucketMid(len(h.counts) - 1)
}
