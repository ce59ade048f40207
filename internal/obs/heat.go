// Per-slot heat: operation and byte counters over the 256-slot cluster
// continuum, the unit of placement and migration. Heat is recorded
// per-partition by the owning goroutine (uncontended) and aggregated
// lazily at scrape time, so the hot path never synchronizes across
// partitions.
package obs

import "sync/atomic"

// Slots is the fixed size of the cluster continuum; it must agree with
// cluster.Slots (the top eight bits of the mixed key). Spelled as a
// literal here so obs stays a leaf package; the partition package
// asserts the agreement at compile time.
const Slots = 256

// SlotHeat accumulates per-slot operation and byte counts. One writer
// (the partition's owner goroutine), any number of readers. The pads
// keep the array from false-sharing with neighboring heap objects;
// within the array, single-writer access needs no padding.
type SlotHeat struct {
	_     [64]byte
	ops   [Slots]atomic.Int64
	bytes [Slots]atomic.Int64
	_     [64]byte
}

// Record books one operation touching slot with n value bytes moved.
func (h *SlotHeat) Record(slot int, n int64) {
	h.ops[slot&(Slots-1)].Add(1)
	if n != 0 {
		h.bytes[slot&(Slots-1)].Add(n)
	}
}

// Snapshot copies the heat counters.
func (h *SlotHeat) Snapshot() HeatSnapshot {
	var s HeatSnapshot
	for i := range h.ops {
		s.Ops[i] = h.ops[i].Load()
		s.Bytes[i] = h.bytes[i].Load()
	}
	return s
}

// HeatSnapshot is a point-in-time copy of per-slot heat; snapshots from
// different partitions merge associatively at scrape time.
type HeatSnapshot struct {
	Ops   [Slots]int64
	Bytes [Slots]int64
}

// Merge adds o's counts into s.
func (s *HeatSnapshot) Merge(o HeatSnapshot) {
	for i := range s.Ops {
		s.Ops[i] += o.Ops[i]
		s.Bytes[i] += o.Bytes[i]
	}
}

// Sub subtracts an earlier snapshot, yielding interval heat.
func (s *HeatSnapshot) Sub(prev HeatSnapshot) HeatSnapshot {
	out := *s
	for i := range out.Ops {
		out.Ops[i] -= prev.Ops[i]
		out.Bytes[i] -= prev.Bytes[i]
	}
	return out
}
