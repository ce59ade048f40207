package core

import (
	"errors"
	"sync"
	"sync/atomic"

	"cphash/internal/partition"
)

// Slot-migration scan support. A partition's state may only ever be
// touched by the server goroutine that owns it (the whole point of CPHASH),
// so bulk iteration cannot simply walk t.parts from the caller. Instead the
// caller posts a scanJob into a one-deep per-partition mailbox; the owning
// server executes it at its next sweep — between batches, exactly like the
// §8.1 ownership handoffs — and the caller parks until the server has
// finished it. Each job is bounded (scanJobBuckets) so a migration never stalls
// the partition's regular traffic for long; ScanEntries/PurgeEntries chain
// bounded jobs and return a resumable cursor.

// ErrClosed is returned by scans posted to a closed (or closing) table.
var ErrClosed = errors.New("core: table closed")

// scanJob is one bounded iteration request executed by a partition's
// owning server goroutine.
type scanJob struct {
	start      int  // first bucket
	maxBuckets int  // bucket budget for this job
	maxEntries int  // entry budget (scan only)
	purge      bool // remove matching entries instead of copying them
	filter     func(Key) bool

	// results, valid once finished
	entries []partition.ScanEntry
	removed int
	next    int
	done    bool

	finished atomic.Bool
}

// scanBox is one partition's scan mailbox. mu admits one poster at a
// time, which owns waiter until its job is finished or withdrawn. The
// poster holds mu while it is parked; neither the servers nor Close ever
// take it, so nothing that would kick the poster can wait on it.
type scanBox struct {
	mu     sync.Mutex
	job    atomic.Pointer[scanJob]
	waiter parker
}

// scanJobBuckets bounds the buckets one job examines, i.e. the longest a
// server goroutine is away from its rings serving a migration.
const scanJobBuckets = 1 << 12

// scanCallBuckets bounds the buckets one ScanEntries/PurgeEntries call
// examines across jobs, i.e. the longest a *caller* (a kvserver worker
// serving one SCAN round trip) blocks before returning a resume cursor.
const scanCallBuckets = 1 << 16

// run executes a job against the local partition and kicks its poster;
// called only by the owning server goroutine (from serverLoop).
func (box *scanBox) run(store *partition.Store, j *scanJob) {
	if j.purge {
		j.removed, j.next, j.done = store.PurgeBuckets(j.start, j.maxBuckets, j.filter)
	} else {
		j.entries, j.next, j.done = store.AppendScan(j.entries, j.start, j.maxBuckets, j.maxEntries, j.filter)
	}
	j.finished.Store(true)
	box.waiter.kick()
}

// postScanJob installs j in partition p's mailbox (waiting while another
// scan holds it), kicks the owner, and parks until the job is finished. A
// server that takes over p in a handoff finds the job at its next sweep.
// Close kicks the waiter: a job still in the mailbox then is withdrawn, one
// a server has taken is finished before that server exits.
func (t *Table) postScanJob(p int, j *scanJob) error {
	box := &t.scans[p]
	box.mu.Lock()
	defer box.mu.Unlock()
	box.job.Store(j)
	t.kick(p)
	for !j.finished.Load() {
		if t.closed.Load() && box.job.CompareAndSwap(j, nil) {
			return ErrClosed
		}
		box.waiter.park(func() bool {
			return j.finished.Load() || t.closed.Load() && box.job.Load() == j
		})
	}
	return nil
}

// ScanEntries copies live entries whose key satisfies filter (nil = all)
// out of the table, resuming at cursor (0 starts an iteration) and
// returning at least one entry when any remain within the call's bucket
// budget. It returns the entries, the cursor to resume at, and whether the
// whole table has been iterated. Any goroutine may call it, concurrently
// with regular traffic; entries inserted or removed while an iteration is
// in flight may or may not be observed (cache-migration semantics).
func (t *Table) ScanEntries(cursor uint64, maxEntries int, filter func(Key) bool) (entries []partition.ScanEntry, next uint64, done bool, err error) {
	if maxEntries <= 0 {
		maxEntries = 1
	}
	p, bucket := partition.DecodeScanCursor(cursor)
	budget := scanCallBuckets
	for p < t.cfg.Partitions && budget > 0 && len(entries) < maxEntries {
		mb := scanJobBuckets
		if mb > budget {
			mb = budget
		}
		j := &scanJob{
			start:      bucket,
			maxBuckets: mb,
			maxEntries: maxEntries - len(entries),
			filter:     filter,
			entries:    entries,
		}
		if err := t.postScanJob(p, j); err != nil {
			return entries, cursor, false, err
		}
		entries = j.entries
		if adv := j.next - bucket; adv > 0 {
			budget -= adv
		} else {
			budget--
		}
		if j.done {
			p, bucket = p+1, 0
		} else {
			bucket = j.next
		}
	}
	if p >= t.cfg.Partitions {
		return entries, 0, true, nil
	}
	return entries, partition.EncodeScanCursor(p, bucket), false, nil
}

// PurgeEntries removes live entries whose key satisfies filter (nil =
// all), with the same cursor/budget contract as ScanEntries. It returns
// how many entries this call removed.
func (t *Table) PurgeEntries(cursor uint64, filter func(Key) bool) (removed int, next uint64, done bool, err error) {
	p, bucket := partition.DecodeScanCursor(cursor)
	budget := scanCallBuckets
	for p < t.cfg.Partitions && budget > 0 {
		mb := scanJobBuckets
		if mb > budget {
			mb = budget
		}
		j := &scanJob{
			start:      bucket,
			maxBuckets: mb,
			purge:      true,
			filter:     filter,
		}
		if err := t.postScanJob(p, j); err != nil {
			return removed, cursor, false, err
		}
		removed += j.removed
		if adv := j.next - bucket; adv > 0 {
			budget -= adv
		} else {
			budget--
		}
		if j.done {
			p, bucket = p+1, 0
		} else {
			bucket = j.next
		}
	}
	if p >= t.cfg.Partitions {
		return removed, 0, true, nil
	}
	return removed, partition.EncodeScanCursor(p, bucket), false, nil
}
