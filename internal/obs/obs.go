// Package obs is the observability core of the reproduction: an
// allocation-free metrics layer (counters, per-slot heat, log-scale
// histograms), a pluggable registry with Prometheus text exposition, and
// a structured event logger for cluster lifecycle.
//
// The design leans on the CPHash ownership discipline the paper is
// about: every partition is touched by exactly one server goroutine, so
// the hot-path counters are written uncontended — the atomic adds below
// never bounce a cache line between cores, cost a handful of
// nanoseconds, and allocate nothing. The same counters are safe to READ
// from any goroutine (scrapes, /stats snapshots), which is what fixes
// the torn plain-field reads the earlier /stats path performed.
//
// Conventions: every exposed metric is prefixed `cphash_`, counters end
// in `_total`, and units are spelled in the name (`_ns`, `_bytes`,
// `_ms`, `_records`, `_seconds`). Per-slot heat uses the 256-slot
// cluster continuum (the top eight bits of the mixed key), so a hot
// slot in /metrics names exactly the unit the rebalancer can move.
package obs

import "sync/atomic"

// Counter is an atomically updated event counter. It carries no
// cache-line padding of its own: metric structs group many counters
// written by one goroutine, so padding belongs at the struct boundary,
// not between fields.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// PartitionMetrics holds one partition Store's hot-path counters. All
// writes come from the partition's single owner goroutine (or, for the
// lockhash baseline, under its partition spinlock), so the adds are
// uncontended; reads may come from anywhere.
//
// The leading and trailing pads keep a partition's counter block from
// false-sharing a cache line with a neighboring heap object — the
// intra-struct layout needs no padding because only one goroutine
// writes it.
type PartitionMetrics struct {
	_ [64]byte

	Lookups   Counter // GET-class operations
	Hits      Counter // lookups that found a live entry
	Inserts   Counter // SET-class operations accepted
	InsertErr Counter // SETs rejected (oversized value)
	Deletes   Counter // DELETE operations that removed an entry
	Evictions Counter // entries evicted for capacity
	Expired   Counter // entries collected after TTL expiry
	Elements  Counter // live entry count (gauge semantics)
	BytesIn   Counter // value bytes written by inserts
	BytesOut  Counter // value bytes returned by hits

	// Heat, when non-nil, accumulates per-continuum-slot operation and
	// byte counts. Optional because a table with thousands of partitions
	// (the lockhash baseline defaults to 4096) would pay ~4 KiB per
	// partition for a signal the core CPHash tables want.
	Heat *SlotHeat

	_ [64]byte
}

// PartitionSnapshot is a consistent-enough copy of a partition's
// counters (each field individually atomic; the set is read without a
// barrier, as any scrape of live counters is).
type PartitionSnapshot struct {
	Lookups, Hits, Inserts, InsertErr int64
	Deletes, Evictions, Expired       int64
	Elements, BytesIn, BytesOut       int64
}

// Snapshot reads every counter atomically.
func (m *PartitionMetrics) Snapshot() PartitionSnapshot {
	return PartitionSnapshot{
		Lookups:   m.Lookups.Load(),
		Hits:      m.Hits.Load(),
		Inserts:   m.Inserts.Load(),
		InsertErr: m.InsertErr.Load(),
		Deletes:   m.Deletes.Load(),
		Evictions: m.Evictions.Load(),
		Expired:   m.Expired.Load(),
		Elements:  m.Elements.Load(),
		BytesIn:   m.BytesIn.Load(),
		BytesOut:  m.BytesOut.Load(),
	}
}

// Merge adds o into s — the scrape-time aggregation across a table's
// partitions.
func (s *PartitionSnapshot) Merge(o PartitionSnapshot) {
	s.Lookups += o.Lookups
	s.Hits += o.Hits
	s.Inserts += o.Inserts
	s.InsertErr += o.InsertErr
	s.Deletes += o.Deletes
	s.Evictions += o.Evictions
	s.Expired += o.Expired
	s.Elements += o.Elements
	s.BytesIn += o.BytesIn
	s.BytesOut += o.BytesOut
}

// ServerMetrics holds a kvserver's wire-level distributions, recorded by
// its worker goroutines. Histograms are internally atomic, so concurrent
// workers share one struct.
type ServerMetrics struct {
	// OpLatency is the server-side per-operation latency in nanoseconds:
	// each processed batch segment records its wall time divided evenly
	// over its operations (one clock read pair per segment keeps the
	// record O(1) per batch and allocation-free).
	OpLatency Hist
	// BatchLatency is the per-batch-segment processing latency (ns).
	BatchLatency Hist
	// BatchSize is the distribution of gathered batch sizes (requests).
	BatchSize Hist
}

// Collect emits the server histograms under the given label set.
func (m *ServerMetrics) Collect(e *Expo, labels string) {
	e.Histogram("cphash_op_latency_ns", "server-side per-operation latency (batch time amortized over its ops)", labels, m.OpLatency.Snapshot())
	e.Histogram("cphash_batch_latency_ns", "server-side batch segment processing latency", labels, m.BatchLatency.Snapshot())
	e.Histogram("cphash_batch_size", "requests gathered per worker batch", labels, m.BatchSize.Snapshot())
}
