// Log-linear histograms: fixed buckets, atomic counts, no allocation on
// the record path, bounded relative error on quantiles. The layout is
// the HDR-histogram family's: values 0..7 get exact buckets, then every
// power-of-two octave splits into 8 sub-buckets, so a bucket is never
// wider than 12.5% of its lower edge — p99/p999 read from a scrape are
// within that bound of the true quantile. The server's metrics, the load
// generator and the fault matrix all record into this one histogram.
package obs

import (
	"math/bits"
	"sync/atomic"
)

const (
	histSubBits = 3
	histSub     = 1 << histSubBits // sub-buckets per octave

	// HistBuckets spans the whole non-negative int64 range: 8 exact
	// buckets below the first octave, then 8 per octave up to 2^63-1.
	HistBuckets = histSub + (63-histSubBits)*histSub
)

// Hist is a fixed-bucket log-linear histogram safe for concurrent
// recording (atomic adds, no locks, no allocation). The zero value is
// ready to use; embed it by value.
type Hist struct {
	count  atomic.Int64
	sum    atomic.Int64
	bucket [HistBuckets]atomic.Int64
}

// histBucket maps a non-negative value to its bucket index.
func histBucket(v int64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // ≥ histSubBits
	sub := int(uint64(v)>>(uint(exp)-histSubBits)) - histSub
	return (exp-histSubBits)*histSub + histSub + sub
}

// BucketUpper returns the largest value bucket i covers — the edge
// Quantile reports and the `le` bound the Prometheus exposition uses.
func BucketUpper(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	exp := uint((i-histSub)/histSub) + histSubBits
	sub := int64((i - histSub) % histSub)
	lower := (histSub + sub) << (exp - histSubBits)
	width := int64(1) << (exp - histSubBits)
	return lower + width - 1
}

// Record adds one observation; negative values clamp to zero.
func (h *Hist) Record(v int64) { h.RecordN(v, 1) }

// RecordN adds n observations of value v in one shot — the batch-path
// form: a worker times a whole batch segment once and records the
// per-op share for every op in it, keeping instrumentation O(1) per
// batch rather than O(ops).
func (h *Hist) RecordN(v int64, n int64) {
	if n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.bucket[histBucket(v)].Add(n)
	h.sum.Add(v * n)
	h.count.Add(n)
}

// Count returns the number of recorded observations.
func (h *Hist) Count() int64 { return h.count.Load() }

// Snapshot copies the histogram into a plain-value form for
// aggregation, quantiles, and exposition.
func (h *Hist) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range h.bucket {
		s.Buckets[i] = h.bucket[i].Load()
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Hist. Snapshots merge
// associatively, so per-partition histograms aggregate at scrape time
// in any grouping order.
type HistSnapshot struct {
	Count   int64
	Sum     int64
	Buckets [HistBuckets]int64
}

// Merge adds o's observations into s.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Sub subtracts an earlier snapshot, yielding the distribution of the
// interval between the two — how a scraper turns cumulative histograms
// into per-window percentiles.
func (s *HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	out := *s
	out.Count -= prev.Count
	out.Sum -= prev.Sum
	for i := range out.Buckets {
		out.Buckets[i] -= prev.Buckets[i]
	}
	return out
}

// Mean returns the average observation, or 0 when empty.
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper bound for the q-quantile (0 ≤ q ≤ 1): the
// top edge of the bucket holding it, at most 12.5% above the true
// value.
func (s *HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(s.Count-1))
	var seen int64
	last := 0
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		seen += n
		last = i
		if seen > rank {
			return BucketUpper(i)
		}
	}
	return BucketUpper(last)
}
