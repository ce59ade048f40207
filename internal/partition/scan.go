package partition

import "time"

// Slot migration support: bucket-cursor iteration over a partition's live
// entries. A Store is single-owner (CPHASH gives it to one server
// goroutine, LOCKHASH wraps it in a lock), so "safe snapshot iteration"
// here means: the iteration runs entirely inside one call made by the
// owner, touches no LRU state, and copies entries out, as Get does.
// Between calls the table may mutate freely; the bucket cursor only
// guarantees that an entry present for the whole iteration is visited at
// least once, and an entry visited once is never visited again unless it
// was re-inserted — the contract online migration needs.

// ScanEntry is one live entry copied out of a partition: the key, the
// remaining time-to-live on the store's clock (0 = never expires), the
// entry's CAS version, and a fresh copy of the value bytes.
type ScanEntry struct {
	Key     Key
	TTL     time.Duration
	Version uint64
	Value   []byte
}

// Multi-partition tables (core, lockhash) expose one flat scan cursor over
// all their partitions; the shared encoding packs the partition index in
// the top 16 bits and the bucket cursor in the low 48 (partition counts
// are ≤ 4,096 and bucket counts far below 2^48 everywhere in-tree).
const (
	cursorPartShift  = 48
	cursorBucketMask = 1<<cursorPartShift - 1
)

// EncodeScanCursor packs a (partition, bucket) iteration position.
func EncodeScanCursor(part, bucket int) uint64 {
	return uint64(part)<<cursorPartShift | uint64(bucket)&cursorBucketMask
}

// DecodeScanCursor unpacks a cursor. Garbage cursors decode to positions
// past the end of the table, which iterators treat as "done" — never a
// panic.
func DecodeScanCursor(cur uint64) (part, bucket int) {
	return int(cur >> cursorPartShift), int(cur & cursorBucketMask)
}

// NumBuckets returns the store's bucket count, the upper bound of the
// AppendScan/PurgeBuckets bucket cursor.
func (s *Store) NumBuckets() int { return int(s.mask) + 1 }

// AppendScan copies live entries whose key satisfies filter (nil = all)
// into dst, walking whole bucket chains from bucket start. It stops after
// maxBuckets buckets (≤ 0 = no bound) or at maxEntries entries (≤ 0 = no
// bound): a bucket whose matches would exceed the remaining entry budget
// is left for the next call rather than overshooting — callers feed the
// batches straight into wire frames with a hard size bound — unless it is
// the first bucket of the call (iteration must always progress, so a
// single chain larger than the whole budget is returned in full; with the
// wire bound at protocol.MaxScanBatch ≥ 4096 that needs a pathological
// 4096-collision chain). It returns the extended slice, the bucket cursor
// to resume at, and whether the partition is exhausted.
//
// Only unexpired entries are visited; expired ones are skipped without
// being reclaimed (the scan is strictly read-only — it moves no LRU links
// and frees nothing, which is what makes it safe to run between any two
// operations of the owner).
func (s *Store) AppendScan(dst []ScanEntry, start, maxBuckets, maxEntries int, filter func(Key) bool) (out []ScanEntry, next int, done bool) {
	n := s.NumBuckets()
	if start < 0 {
		start = 0
	}
	if start >= n {
		return dst, n, true
	}
	if maxBuckets <= 0 || start+maxBuckets > n {
		maxBuckets = n - start
	}
	base := len(dst)
	now := s.clock()
	live := func(r uint32) bool {
		h := s.rec(r)
		return !h.expired(now) && (filter == nil || filter(h.key()))
	}
	b := start
	for ; b < start+maxBuckets; b++ {
		if maxEntries > 0 && len(dst) > base {
			budget := maxEntries - (len(dst) - base)
			if budget <= 0 {
				return dst, b, false
			}
			matches := 0
			for r := s.buckets[b]; r != 0 && matches <= budget; r = s.rec(r).u32(recHNext) {
				if live(r) {
					matches++
				}
			}
			if matches > budget {
				return dst, b, false // chain would blow the budget: next call
			}
		}
		for r := s.buckets[b]; r != 0; r = s.rec(r).u32(recHNext) {
			if !live(r) {
				continue
			}
			e := s.elem(r)
			var ttl time.Duration
			if exp := e.ExpireAt(); exp != 0 {
				ttl = time.Duration(exp - now) // > 0: live checked it
			}
			dst = append(dst, ScanEntry{
				Key:     e.Key(),
				TTL:     ttl,
				Version: e.Version(),
				Value:   append([]byte(nil), e.Value()...),
			})
		}
	}
	return dst, b, b == n
}

// PurgeBuckets unlinks every live entry whose key satisfies filter
// (nil = all), walking whole bucket chains from bucket start and stopping
// after maxBuckets buckets (≤ 0 = no bound). It returns how many entries
// were removed, the bucket cursor to resume at, and whether the partition
// is exhausted. Removals free their memory at once and are counted as
// deletes; entries whose TTL already elapsed are reclaimed as expired, not
// counted as purged.
func (s *Store) PurgeBuckets(start, maxBuckets int, filter func(Key) bool) (removed, next int, done bool) {
	n := s.NumBuckets()
	if start < 0 {
		start = 0
	}
	if start >= n {
		return 0, n, true
	}
	if maxBuckets <= 0 || start+maxBuckets > n {
		maxBuckets = n - start
	}
	now := s.clock()
	b := start
	for ; b < start+maxBuckets; b++ {
		r := s.buckets[b]
		for r != 0 {
			h := s.rec(r)
			nxt := h.u32(recHNext)
			if key := h.key(); filter == nil || filter(key) {
				if h.expired(now) {
					s.expireElement(r)
				} else {
					s.m.Deletes.Inc()
					s.unlink(r)
					if s.sink != nil {
						// Purges are explicit removals (slot migration's
						// post-move cleanup): stream them so a warm restart
						// cannot resurrect entries this node no longer owns.
						s.sink.Delete(key)
					}
					removed++
				}
			}
			r = nxt
		}
	}
	return removed, b, b == n
}
