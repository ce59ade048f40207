// Package lockhash implements LOCKHASH, the paper's fine-grained-locking
// baseline (Section 4.2): the *same* partition store as CPHASH — the code is
// shared via internal/partition, exactly as in the paper's implementation
// (Section 5) — but instead of giving each partition to a server thread,
// every partition is protected by a spinlock and clients operate on it
// directly. The paper runs LOCKHASH with 4,096 partitions, experimentally
// the optimum: fewer partitions contend, more add no throughput.
//
// Differences from the paper, also listed in the README ("Where this
// differs from the paper"):
//   - The paper's random-eviction configuration uses per-bucket locks; here
//     random eviction uses the same per-partition spinlock, because the
//     shared single-threaded allocator inside a partition would need its own
//     lock anyway. This is conservative against CPHASH's win only at very
//     high partition-local contention, which 4,096-way partitioning makes
//     rare.
//   - When the table capacity is too small to give every partition a useful
//     arena, the partition count is capped (the paper's global malloc never
//     hits this; our arenas are physically per-partition). The capped
//     configuration still reproduces the paper's observation that LOCKHASH
//     collapses at small working sets due to lock contention.
package lockhash

import (
	"fmt"
	"time"

	"cphash/internal/locks"
	"cphash/internal/obs"
	"cphash/internal/partition"
)

// Key is re-exported for symmetry with internal/core.
type Key = partition.Key

// DefaultPartitions is the paper's experimentally optimal partition count.
const DefaultPartitions = 4096

// minPartitionBytes is the smallest arena worth creating; the partition
// count is capped so each partition gets at least this much.
const minPartitionBytes = 1 << 10

// Config parameterizes a LOCKHASH table.
type Config struct {
	// Partitions is the number of lock-protected partitions (default
	// 4,096, the paper's optimum). Rounded to a power of two and capped so
	// every partition holds at least a minimal arena.
	Partitions int
	// CapacityBytes is the total byte budget, divided evenly.
	CapacityBytes int
	// Policy selects LRU (default) or random eviction.
	Policy partition.EvictionPolicy
	// BucketsPerPartition overrides the derived bucket count (0 = derive).
	BucketsPerPartition int
	// Seed makes eviction deterministic for tests.
	Seed uint64
	// Clock supplies "now" in nanoseconds for TTL expiry (nil = wall
	// clock). Tests inject fake clocks to make expiry deterministic.
	Clock func() int64
	// Sink, when non-nil, supplies each partition's durability change sink
	// (internal/persist hands out one appender per partition). Sink calls
	// happen under the partition spinlock, which serializes them — the
	// single-producer contract the appender requires.
	Sink func(partition int) partition.ChangeSink
}

// Table is a LOCKHASH hash table. All methods are safe for concurrent use
// by any number of goroutines; unlike core.Table there are no client
// handles — callers hit the partition locks directly, which is the point of
// the comparison.
type Table struct {
	parts []lockedPartition
	mask  uint64
}

// lockedPartition pairs a spinlock with its store, padded so adjacent
// partitions' locks do not share cache lines.
type lockedPartition struct {
	mu    locks.Spinlock
	store *partition.Store
	_     [40]byte
}

// New builds a LOCKHASH table.
func New(cfg Config) (*Table, error) {
	n := cfg.Partitions
	if n <= 0 {
		n = DefaultPartitions
	}
	if maxN := cfg.CapacityBytes / minPartitionBytes; n > maxN {
		n = maxN
	}
	if n < 1 {
		n = 1
	}
	n = floorPow2(n)
	per := cfg.CapacityBytes / n
	t := &Table{parts: make([]lockedPartition, n), mask: uint64(n - 1)}
	for i := range t.parts {
		var sink partition.ChangeSink
		if cfg.Sink != nil {
			sink = cfg.Sink(i)
		}
		s, err := partition.NewStore(partition.Config{
			CapacityBytes: per,
			Buckets:       cfg.BucketsPerPartition,
			Policy:        cfg.Policy,
			Seed:          cfg.Seed + uint64(i)*0x9e3779b97f4a7c15 + 1,
			Clock:         cfg.Clock,
			Sink:          sink,
		})
		if err != nil {
			return nil, fmt.Errorf("lockhash: partition %d: %w", i, err)
		}
		t.parts[i].store = s
	}
	return t, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Table {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

func floorPow2(n int) int {
	p := 1
	for p*2 <= n {
		p <<= 1
	}
	return p
}

// NumPartitions returns the actual (possibly capped) partition count.
func (t *Table) NumPartitions() int { return len(t.parts) }

// PartitionOf returns the partition index for key k; the same high-bits
// hash split as core.Table uses.
func (t *Table) PartitionOf(k Key) int {
	return int(partition.Mix64(k&partition.MaxKey) >> 32 & t.mask)
}

func (t *Table) part(k Key) *lockedPartition {
	return &t.parts[t.PartitionOf(k)]
}

// Get looks up key and appends its value to dst, returning the extended
// slice and whether the key was found. The copy happens under the partition
// lock (the paper's client threads likewise finish the query before
// releasing the lock).
func (t *Table) Get(key Key, dst []byte) ([]byte, bool) {
	dst, _, ok := t.GetVer(key, dst)
	return dst, ok
}

// GetVer is Get that also returns the entry's CAS version. Value and
// version are read under one lock hold, so both come from the same entry
// generation.
func (t *Table) GetVer(key Key, dst []byte) ([]byte, uint64, bool) {
	p := t.part(key)
	p.mu.Lock()
	dst, ver, ok := p.store.Get(key&partition.MaxKey, dst)
	p.mu.Unlock()
	return dst, ver, ok
}

// Put stores value under key, reporting whether space was obtained. The
// value copy happens under the partition lock.
func (t *Table) Put(key Key, value []byte) bool { return t.put(key, value, 0, 0) }

// PutTTL stores value under key with a time-to-live on the table's clock
// (0 = never expires), reporting whether space was obtained.
func (t *Table) PutTTL(key Key, value []byte, ttl time.Duration) bool {
	return t.PutTTLVer(key, value, ttl, 0)
}

// PutTTLVer is PutTTL with an explicit CAS version (0 = assign next);
// slot migration uses it to move entries without disturbing their CAS
// tokens. Every partition runs on the table's one clock, so any of them
// converts the TTL.
func (t *Table) PutTTLVer(key Key, value []byte, ttl time.Duration, ver uint64) bool {
	return t.put(key, value, t.parts[0].store.Deadline(ttl), ver)
}

// PutExpireVer stores value under key with an absolute expiry deadline on
// the table's clock in nanoseconds (0 = never expires) and an explicit CAS
// version (0 = assign next); recovery and replication replay use it so
// TTLs and versions survive a restart or promotion exactly as logged.
func (t *Table) PutExpireVer(key Key, value []byte, expireAt int64, ver uint64) bool {
	return t.put(key, value, expireAt, ver)
}

// put is every writer: partition.Store.Put under the key's partition lock.
func (t *Table) put(key Key, value []byte, expireAt int64, ver uint64) bool {
	p := t.part(key)
	p.mu.Lock()
	ok := p.store.Put(key&partition.MaxKey, value, expireAt, ver)
	p.mu.Unlock()
	return ok
}

// RMW executes one atomic read-modify-write (CAS, add/replace,
// append/prepend, incr/decr, touch) under the key's partition spinlock —
// LOCKHASH's moral equivalent of CPHASH running the composite op on the
// partition's owning server goroutine. Results are written into req.
func (t *Table) RMW(key Key, req *partition.RMWReq) {
	p := t.part(key)
	p.mu.Lock()
	p.store.RMW(key&partition.MaxKey, req)
	p.mu.Unlock()
}

// Delete removes key, reporting whether it was present.
func (t *Table) Delete(key Key) bool {
	p := t.part(key)
	p.mu.Lock()
	ok := p.store.Delete(key & partition.MaxKey)
	p.mu.Unlock()
	return ok
}

// Stats aggregates the partition counters. The per-partition counters
// are atomics (obs.PartitionMetrics), so the aggregation needs no
// locks and never stalls traffic — the scrape-safety the torn-read
// audit wanted, for free from the shared store.
func (t *Table) Stats() partition.Stats {
	var out partition.Stats
	for i := range t.parts {
		out.Add(t.parts[i].store.Stats())
	}
	return out
}

// CapacityBytes returns the total configured capacity actually allocated.
func (t *Table) CapacityBytes() int {
	return t.parts[0].store.CapacityBytes() * len(t.parts)
}

// Collect emits the table's aggregated counters under the given label
// set — the same cphash_table_* families core.Table.Collect uses, so
// dashboards work unchanged across backends. LOCKHASH partitions carry
// no slot-heat counters (4096 fine-grained partitions would cost ~16MiB
// of padded counters for a design the paper uses as a baseline).
func (t *Table) Collect(e *obs.Expo, labels string) {
	st := t.Stats()
	e.Counter("cphash_table_lookups_total", "lookup requests processed", labels, st.Lookups)
	e.Counter("cphash_table_hits_total", "lookups that found a live entry", labels, st.Hits)
	e.Counter("cphash_table_misses_total", "lookups that found nothing", labels, st.Lookups-st.Hits)
	e.Counter("cphash_table_inserts_total", "insert requests processed", labels, st.Inserts)
	e.Counter("cphash_table_insert_errors_total", "inserts rejected for lack of space", labels, st.InsertErr)
	e.Counter("cphash_table_deletes_total", "explicit deletes", labels, st.Deletes)
	e.Counter("cphash_table_evictions_total", "entries evicted for capacity", labels, st.Evictions)
	e.Counter("cphash_table_expired_total", "entries collected after TTL expiry", labels, st.Expired)
	e.Counter("cphash_table_bytes_in_total", "value bytes accepted by inserts", labels, st.BytesIn)
	e.Counter("cphash_table_bytes_out_total", "value bytes returned by hits", labels, st.BytesOut)
	e.Gauge("cphash_table_elements", "entries currently stored", labels, float64(st.Elements))
}

// scanCallBuckets bounds the buckets one ScanEntries/PurgeEntries call
// examines, so a migration round trip holds each partition lock only
// briefly and never stalls regular traffic for long. Same contract as
// core.Table: resume with the returned cursor.
const scanCallBuckets = 1 << 16

// scanLockBuckets bounds the buckets examined under one spinlock hold.
const scanLockBuckets = 1 << 12

// ScanEntries copies live entries whose key satisfies filter (nil = all)
// out of the table, appending them to dst and their values to the slab
// vals (see partition.Store.AppendScan), resuming at cursor (0 starts an
// iteration). It takes each partition's spinlock for at most one
// bucket-budget stretch, returns at least one entry when any remain
// within the call's budget, and reports the extended entries and slab,
// the cursor to resume at, and whether iteration is complete.
func (t *Table) ScanEntries(cursor uint64, maxEntries int, filter func(Key) bool, dst []partition.ScanEntry, vals []byte) (entries []partition.ScanEntry, outVals []byte, next uint64, done bool) {
	if maxEntries <= 0 {
		maxEntries = 1
	}
	entries, base := dst, len(dst)
	pi, bucket := partition.DecodeScanCursor(cursor)
	budget := scanCallBuckets
	for pi < len(t.parts) && budget > 0 && len(entries)-base < maxEntries {
		p := &t.parts[pi]
		mb := scanLockBuckets
		if mb > budget {
			mb = budget
		}
		p.mu.Lock()
		var pdone bool
		var nb int
		entries, vals, nb, pdone = p.store.AppendScan(entries, vals, bucket, mb, maxEntries-(len(entries)-base), filter)
		p.mu.Unlock()
		if adv := nb - bucket; adv > 0 {
			budget -= adv
		} else {
			budget--
		}
		if pdone {
			pi, bucket = pi+1, 0
		} else {
			bucket = nb
		}
	}
	if pi >= len(t.parts) {
		return entries, vals, 0, true
	}
	return entries, vals, partition.EncodeScanCursor(pi, bucket), false
}

// PurgeEntries removes live entries whose key satisfies filter (nil =
// all), with the same cursor/budget contract as ScanEntries, returning
// how many entries this call removed.
func (t *Table) PurgeEntries(cursor uint64, filter func(Key) bool) (removed int, next uint64, done bool) {
	pi, bucket := partition.DecodeScanCursor(cursor)
	budget := scanCallBuckets
	for pi < len(t.parts) && budget > 0 {
		p := &t.parts[pi]
		mb := scanLockBuckets
		if mb > budget {
			mb = budget
		}
		p.mu.Lock()
		r, nb, pdone := p.store.PurgeBuckets(bucket, mb, filter)
		p.mu.Unlock()
		removed += r
		if adv := nb - bucket; adv > 0 {
			budget -= adv
		} else {
			budget--
		}
		if pdone {
			pi, bucket = pi+1, 0
		} else {
			bucket = nb
		}
	}
	if pi >= len(t.parts) {
		return removed, 0, true
	}
	return removed, partition.EncodeScanCursor(pi, bucket), false
}

// CheckInvariants validates every partition; the table must be quiescent.
func (t *Table) CheckInvariants() error {
	for i := range t.parts {
		if err := t.parts[i].store.CheckInvariants(); err != nil {
			return fmt.Errorf("partition %d: %w", i, err)
		}
	}
	return nil
}
