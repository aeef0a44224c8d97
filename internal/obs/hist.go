package obs

import (
	"math"
	"sync"

	"madgo/internal/vtime"
)

// Histogram is the state of a log-bucketed histogram series, and a pointer to
// it the series' handle: bucket boundaries grow by a factor of 2^(1/histSub)
// from histBase, so the quantile estimator's relative error is bounded by one
// sub-octave (≈9%) and the estimator is exact for constant-valued series (it
// clamps to the observed min/max). Values are arbitrary nonnegative floats;
// durations are observed in seconds. The buckets are a fixed array behind the
// histogram's own lock, made by the first observation (a series that is bound
// and never observed costs no 2.8 KiB); after it an observation neither
// allocates nor touches the registry. A nil handle (what a nil registry
// binds) ignores observations and counts zero.
type Histogram struct {
	mu      sync.Mutex
	buckets *[histBuckets]int64 // index i covers (upper(i-1), upper(i)]
	count   int64
	sum     float64
	min     float64
	max     float64
}

const (
	// histBase is the upper bound of bucket 0; everything at or below it
	// lands there. 1 ns in seconds — below the simulation's resolution.
	histBase = 1e-9
	// histSub is the number of buckets per octave (factor-of-two span).
	histSub = 8
	// histOverflow is the index of the bucket past the 44 octaves from 1 ns
	// to 2^44 ns (4.9 hours of virtual time): larger and infinite values are
	// counted there, and only the +Inf line of a snapshot includes them.
	histOverflow = 44*histSub + 1
	histBuckets  = histOverflow + 1
)

// bucketIndex returns the index of the bucket containing v (NaN counts as 0).
func bucketIndex(v float64) int {
	if !(v > histBase) {
		return 0
	}
	return int(math.Min(math.Ceil(math.Log2(v/histBase)*histSub), histOverflow))
}

// bucketUpper returns the inclusive upper bound of bucket i.
func bucketUpper(i int) float64 {
	return histBase * math.Pow(2, float64(i)/histSub)
}

// Observe records v into the histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if v < 0 {
		panic("obs: negative histogram observation")
	}
	h.mu.Lock()
	if h.count == 0 {
		h.buckets, h.min = new([histBuckets]int64), v
	}
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketIndex(v)]++
	h.mu.Unlock()
}

// ObserveDuration records a virtual duration, in seconds.
func (h *Histogram) ObserveDuration(d vtime.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// inside the containing bucket, clamped to the observed min/max so
// degenerate distributions report exactly. The caller holds mu.
func (h *Histogram) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := min(max(q, 0), 1) * float64(h.count)
	var cum int64
	for i, n := range h.buckets {
		if n > 0 && float64(cum+n) >= rank {
			lo := 0.0
			if i > 0 {
				lo = bucketUpper(i - 1)
			}
			frac := (rank - float64(cum)) / float64(n)
			return min(max(lo+(bucketUpper(i)-lo)*frac, h.min), h.max)
		}
		cum += n
	}
	return h.max
}
