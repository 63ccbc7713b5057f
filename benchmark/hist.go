package main

import (
	"math"
	"math/bits"
	"sort"
)

// subBits gives 128 sub-buckets per power of two: a bucket is at most 1/128
// of its lower bound wide, so a reported quantile is within 0.8 % of the
// sample of that rank.
const subBits = 7

// histBuckets covers every uint64 nanosecond value.
const histBuckets = (64-subBits)<<subBits + 1<<subBits

// hist is a log-linear latency histogram owned by one goroutine at a time.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

func bucketOf(ns uint64) int {
	if ns < 2<<subBits {
		return int(ns)
	}
	e := bits.Len64(ns) - (subBits + 1)
	return e<<subBits + int(ns>>e)
}

// bucketRange returns the lowest value of bucket i and the bucket's width,
// in nanoseconds.
func bucketRange(i int) (low, width float64) {
	if i < 2<<subBits {
		return float64(i), 1
	}
	e := i>>subBits - 1
	return float64(uint64(i-e<<subBits) << e), float64(uint64(1) << e)
}

func (h *hist) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 when empty): the bucket
// holding the sample of that rank, interpolated over the bucket's whole
// nanosecond values by the rank's place among the bucket's samples, so the
// result is never further from that sample than the bucket is wide.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := math.Max(1, math.Ceil(q*float64(h.n)))
	var cum float64
	for i, c := range h.counts {
		if c > 0 && cum+float64(c) >= rank {
			low, width := bucketRange(i)
			return low + (width-1)*(rank-cum-0.5)/float64(c)
		}
		cum += float64(c)
	}
	return 0 // not reached: the counts sum to n
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the "exclusive" method), which is
// what the driver uses for spreads. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median returns the middle value (mean of the two middle values for an
// even count), 0 when empty.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}
