package main

import (
	"math/bits"
	"sort"
)

// hist is a log-bucket histogram of non-negative int64 samples
// (nanoseconds here): values below 128 are exact, above that each
// power-of-two range is cut into 128 equal buckets, so a bucket's
// midpoint is within 1/256 (0.4 %) of every value it holds. Not safe
// for concurrent use; the sink callback owns it under sinkState.mu.
type hist struct {
	counts []uint64
	n      uint64
	max    int64
}

const histSub = 128 // buckets per power of two

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 8 // v>>e lies in [128,255]
	return histSub + e*histSub + int(uint64(v)>>uint(e)) - histSub
}

// histValue returns the midpoint of bucket i.
func histValue(i int) int64 {
	if i < 2*histSub {
		return int64(i)
	}
	e := (i - histSub) / histSub
	lo := int64((i-histSub)%histSub+histSub) << uint(e)
	return lo + (int64(1)<<uint(e))/2
}

func (h *hist) add(v int64) {
	i := histIndex(v)
	if i >= len(h.counts) {
		grown := make([]uint64, i+histSub)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[i]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

// merge adds every sample of o to h.
func (h *hist) merge(o *hist) {
	if len(o.counts) > len(h.counts) {
		grown := make([]uint64, len(o.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the value below which share q of the samples fall
// (0 when empty). q = 1 returns the exact maximum.
func (h *hist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q*float64(h.n)) + 1 // 1-based rank of the wanted sample
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if v := histValue(i); v < h.max {
				return v
			}
			return h.max
		}
	}
	return h.max
}

// tailPercentiles are the candidates for "the highest percentile the
// sample supports", lowest first, in parts per 100 000 so that the count
// of samples beyond one is exact.
var tailPercentiles = []uint64{50_000, 90_000, 99_000, 99_900, 99_990, 99_999}

// topPercentile returns the highest candidate percentile that still has
// at least ten samples beyond it, or 0 when even the median has not.
func topPercentile(n uint64) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if n*(100_000-p)/100_000 >= 10 {
			best = float64(p) / 100_000
		}
	}
	return best
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) (the exclusive method) gives them, which
// is what the driver computes a spread from.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		m := median(xs)
		return m, m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
