package main

import (
	"math/bits"
	"sort"
)

// histSubBits fixes 128 sub-buckets per octave: a bucket is at most 1/128
// of its lower edge wide, so reporting the bucket midpoint is within 0.4 %
// of any value in it. The bounds in BENCHMARK.json (10–15 % on latency)
// need that; the repo's own histograms (12.5 % and 2× buckets) do not.
const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// histMaxExp caps recorded values at 2^40 ns (~18 min).
	histMaxExp  = 40
	histBuckets = (histMaxExp - histSubBits + 2) * histSub
)

// hist is a log-linear histogram of non-negative int64 samples
// (nanoseconds). Values below 2*histSub are recorded exactly.
type hist struct {
	counts []uint32
	n      uint64
}

func newHist() *hist { return &hist{counts: make([]uint32, histBuckets)} }

func histBucket(v int64) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	if e > histMaxExp {
		return histBuckets - 1
	}
	sub := int(v>>(uint(e)-histSubBits)) & (histSub - 1)
	return (e-histSubBits+1)*histSub + sub
}

// histValue returns the midpoint of bucket i.
func histValue(i int) float64 {
	if i < 2*histSub {
		return float64(i)
	}
	e := uint(i/histSub + histSubBits - 1)
	lo := int64(histSub+i%histSub) << (e - histSubBits)
	width := int64(1) << (e - histSubBits)
	return float64(lo) + float64(width-1)/2
}

func (h *hist) record(v int64) {
	h.counts[histBucket(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the value at rank ceil(q*n), the same nearest-rank
// definition the unit test's sorted reference uses; 0 on an empty hist.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += uint64(c)
		if seen >= rank {
			return histValue(i)
		}
	}
	return histValue(histBuckets - 1)
}

// above returns how many samples lie in buckets strictly above the one
// holding quantile q — the "samples beyond the percentile" the metric
// guide asks to be stated.
func (h *hist) above(q float64) uint64 {
	v := h.quantile(q)
	var n uint64
	for i := histBucket(int64(v)) + 1; i < histBuckets; i++ {
		n += uint64(h.counts[i])
	}
	return n
}

// median returns the middle of xs (mean of the middle two when even);
// 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile of xs by the exclusive
// method Python's statistics.quantiles(xs, n=4) uses, so -compare judges
// spread exactly as the acceptance procedure does. It needs len(xs) ≥ 2.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(3)
}
