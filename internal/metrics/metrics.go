// Package metrics provides the measurement substrate used by the control
// plane and the experiment harness: an HDR-style latency histogram with
// percentile queries, append-only time series, and monotonic counters.
// Everything is allocation-light so metrics can be recorded per tuple.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Histogram records non-negative integer samples (typically latencies in
// milliseconds) into exponentially ranged buckets with 5 bits of
// sub-bucket precision, giving ≤ ~3% relative error on percentile
// queries — the standard HDR histogram construction. The zero value is
// ready to use. Histogram is safe for concurrent use.
type Histogram struct {
	mu     sync.Mutex
	counts []uint64
	total  uint64
	sum    float64
	max    int64
	min    int64
	hasMin bool
}

const (
	subBucketBits  = 5
	subBucketCount = 1 << subBucketBits // 32 sub-buckets per power of two
)

// bucketIndex maps a value to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBucketCount {
		return int(v)
	}
	// Exponent of the highest set bit beyond the sub-bucket range.
	exp := 63 - bits.LeadingZeros64(uint64(v))
	shift := exp - subBucketBits
	sub := int(v>>uint(shift)) & (subBucketCount - 1)
	return (shift+1)*subBucketCount + sub
}

// bucketLow returns the smallest value mapping to bucket i (the inverse
// of bucketIndex, used to reconstruct percentile values).
func bucketLow(i int) int64 {
	if i < subBucketCount {
		return int64(i)
	}
	shift := i/subBucketCount - 1
	sub := i % subBucketCount
	return (int64(subBucketCount) + int64(sub)) << uint(shift)
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records n samples of value v under one lock acquisition: a
// run of equal samples costs what one does.
func (h *Histogram) ObserveN(v int64, n uint64) {
	if n == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	i := bucketIndex(v)
	h.mu.Lock()
	if i >= len(h.counts) {
		grown := make([]uint64, i+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[i] += n
	h.total += n
	h.sum += float64(v) * float64(n)
	if v > h.max {
		h.max = v
	}
	if !h.hasMin || v < h.min {
		h.min = v
		h.hasMin = true
	}
	h.mu.Unlock()
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Mean returns the arithmetic mean of the samples (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Min returns the smallest recorded sample (0 when empty).
func (h *Histogram) Min() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.hasMin {
		return 0
	}
	return h.min
}

// Percentile returns the value at quantile q in [0,1], e.g. 0.95 for the
// 95th percentile. Returns 0 when empty.
func (h *Histogram) Percentile(q float64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			lo := bucketLow(i)
			if lo > h.max {
				return h.max
			}
			return lo
		}
	}
	return h.max
}

// Reset clears all samples.
func (h *Histogram) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.counts = h.counts[:0]
	h.total, h.sum, h.max, h.min, h.hasMin = 0, 0, 0, 0, false
}

// Summary is a snapshot of common statistics.
type Summary struct {
	Count                   uint64
	Mean                    float64
	Min, P50, P95, P99, Max int64
}

// Summarize returns a consistent snapshot of the histogram statistics.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.Count(),
		Mean:  h.Mean(),
		Min:   h.Min(),
		P50:   h.Percentile(0.50),
		P95:   h.Percentile(0.95),
		P99:   h.Percentile(0.99),
		Max:   h.Max(),
	}
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p95=%d p99=%d max=%d",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
}

// Point is one sample of a time series.
type Point struct {
	// T is the sample time in milliseconds since run start.
	T int64
	// V is the sampled value.
	V float64
}

// TimeSeries is an append-only sequence of timestamped values, used to
// record experiment outputs (input rate, throughput, #VMs over time).
// It is safe for concurrent use.
type TimeSeries struct {
	mu     sync.Mutex
	points []Point
}

// Add appends a sample.
func (ts *TimeSeries) Add(t int64, v float64) {
	ts.mu.Lock()
	ts.points = append(ts.points, Point{T: t, V: v})
	ts.mu.Unlock()
}

// Points returns a copy of all samples in insertion order.
func (ts *TimeSeries) Points() []Point {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]Point, len(ts.points))
	copy(out, ts.points)
	return out
}

// Len returns the number of samples.
func (ts *TimeSeries) Len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.points)
}

// Last returns the most recent sample (zero Point when empty).
func (ts *TimeSeries) Last() Point {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if len(ts.points) == 0 {
		return Point{}
	}
	return ts.points[len(ts.points)-1]
}

// MaxV returns the maximum sampled value (0 when empty).
func (ts *TimeSeries) MaxV() float64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	m := 0.0
	for _, p := range ts.points {
		if p.V > m {
			m = p.V
		}
	}
	return m
}

// Downsample reduces the series to at most n points by averaging values
// in equal time windows, for compact experiment output.
func (ts *TimeSeries) Downsample(n int) []Point {
	pts := ts.Points()
	if n <= 0 || len(pts) <= n {
		return pts
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].T < pts[j].T })
	t0, t1 := pts[0].T, pts[len(pts)-1].T
	if t1 == t0 {
		return pts[:1]
	}
	span := float64(t1-t0) / float64(n)
	out := make([]Point, 0, n)
	i := 0
	for w := 0; w < n; w++ {
		hi := t0 + int64(span*float64(w+1))
		var sum float64
		var cnt int
		var lastT int64
		for i < len(pts) && (pts[i].T <= hi || w == n-1) {
			sum += pts[i].V
			cnt++
			lastT = pts[i].T
			i++
		}
		if cnt > 0 {
			out = append(out, Point{T: lastT, V: sum / float64(cnt)})
		}
	}
	return out
}

// Counter is a monotonically increasing concurrent counter. Lock-free,
// so per-tuple and per-batch hot paths can bump it without contention.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }
