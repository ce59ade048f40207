package persist

import (
	"fmt"
	"time"

	"cphash/internal/core"
	"cphash/internal/lockhash"
	"cphash/internal/partition"
)

// Op is a recovered record's operation.
type Op byte

const (
	// OpSet carries a key, value and absolute expiry deadline (0 =
	// never) on the pipeline's clock.
	OpSet = Op(1)
	// OpDelete carries only the key.
	OpDelete = Op(2)
)

// RecoverStats describes what a Recover pass found and applied.
type RecoverStats struct {
	// SnapshotGen is the generation of the snapshot that loaded (0 =
	// recovered from WAL alone); InvalidSnapshots counts newer snapshots
	// rejected by validation before one loaded.
	SnapshotGen      uint64 `json:"snapshotGen"`
	SnapshotEntries  int64  `json:"snapshotEntries"`
	InvalidSnapshots int64  `json:"invalidSnapshots"`
	// WALSegments / WALRecords count replayed segments and records;
	// TornSegments counts segments that ended in a torn or corrupt
	// frame (their clean prefix still replayed).
	WALSegments  int64 `json:"walSegments"`
	WALRecords   int64 `json:"walRecords"`
	TornSegments int64 `json:"tornSegments"`
	// SkippedExpired counts set records whose deadline had already
	// elapsed at recovery (applied as deletes so they cannot shadow-read
	// an older live value).
	SkippedExpired int64 `json:"skippedExpired"`
}

// Recover streams the durable state — newest valid snapshot, then the
// WAL tail — into apply, in an order whose last-writer-wins replay
// reconstructs the pre-crash table: snapshot entries first (all OpSet),
// then WAL records segment by segment in global sequence order. A torn
// final frame (the crash landed mid-write) cleanly ends its segment's
// replay. Set records whose TTL deadline has already passed arrive as
// OpDelete instead, so stale values cannot outlive their expiry across a
// restart.
//
// Recover must run before Start (the pipeline drops the change records
// the replay itself triggers — the on-disk state already holds them).
func (p *Pipeline) Recover(apply func(op Op, key uint64, expireAt int64, ver uint64, value []byte) error) (RecoverStats, error) {
	var st RecoverStats
	if p.started.Load() {
		return st, fmt.Errorf("persist: Recover must run before Start")
	}
	segs, snaps, err := scanDir(p.cfg.Dir)
	if err != nil {
		return st, err
	}
	br := newReplayReader()

	// Newest snapshot that validates wins; an invalid one is rejected
	// whole and only counted — deletion is left to the next successful
	// snapshot's cleanup, since a validation failure here could also be
	// a transient read error.
	var minSeqs map[int]uint64
	for i := len(snaps) - 1; i >= 0; i-- {
		s := snaps[i]
		if _, _, err := readSnapshot(br, s.path, nil); err != nil {
			st.InvalidSnapshots++
			continue
		}
		now := p.cfg.Clock()
		n, ms, err := readSnapshot(br, s.path, func(key uint64, exp int64, ver uint64, val []byte) error {
			if exp != 0 && exp <= now {
				st.SkippedExpired++
				return nil
			}
			return apply(OpSet, key, exp, ver, val)
		})
		if err != nil {
			return st, fmt.Errorf("persist: applying snapshot %s: %w", s.path, err)
		}
		st.SnapshotGen = s.gen
		st.SnapshotEntries = n
		minSeqs = ms
		break
	}

	// Replay the WAL tail in global sequence order. Segments the
	// snapshot covers are skipped (and may linger only if a crash
	// interrupted the post-snapshot truncation — replaying them would be
	// harmless, just slower, so they are simply dropped here). A segment
	// from a stream the snapshot does not list comes from a run with a
	// different Streams config: segment seqs are globally ordered and
	// every stream rolled when the snapshot started, so such a segment
	// is covered exactly when it is older than every rolled stream's
	// watermark — replaying it would resurrect pre-snapshot state.
	minOverall := minSeqOverall(minSeqs)
	for _, seg := range segs {
		if minSeqs != nil {
			if min, ok := minSeqs[seg.stream]; ok {
				if seg.seq < min {
					continue
				}
			} else if seg.seq < minOverall {
				continue
			}
		}
		now := p.cfg.Clock()
		n, torn, err := replaySegment(br, seg.path, func(r Record) error {
			if r.Op == OpSet && r.ExpireAt != 0 && r.ExpireAt <= now {
				st.SkippedExpired++
				return apply(OpDelete, r.Key, 0, 0, nil)
			}
			return apply(r.Op, r.Key, r.ExpireAt, r.Ver, r.Value)
		})
		st.WALRecords += int64(n)
		st.WALSegments++
		if torn {
			st.TornSegments++
		}
		if err != nil {
			return st, fmt.Errorf("persist: replaying %s: %w", seg.path, err)
		}
	}
	p.recovered = st
	return st, nil
}

// minSeqOverall returns the smallest per-stream replay watermark — the
// coverage bound for segments of streams the snapshot does not list.
func minSeqOverall(minSeqs map[int]uint64) uint64 {
	min := ^uint64(0)
	for _, s := range minSeqs {
		if s < min {
			min = s
		}
	}
	return min
}

// CoreSource adapts a CPHASH table's safe-snapshot scan to the
// pipeline's snapshot Source.
func CoreSource(t *core.Table) Source {
	return func(cursor uint64, max int, dst []partition.ScanEntry, vals []byte) ([]partition.ScanEntry, []byte, uint64, bool, error) {
		return t.ScanEntries(cursor, max, nil, dst, vals)
	}
}

// LockHashSource adapts a LOCKHASH table's scan to the snapshot Source.
func LockHashSource(t *lockhash.Table) Source {
	return func(cursor uint64, max int, dst []partition.ScanEntry, vals []byte) ([]partition.ScanEntry, []byte, uint64, bool, error) {
		entries, vals, next, done := t.ScanEntries(cursor, max, nil, dst, vals)
		return entries, vals, next, done, nil
	}
}

// RestoreCore replays the pipeline's durable state into a CPHASH table
// through client handle clientID (the handle is released afterwards, so
// a server backend may reuse the slot). Expiry deadlines are converted
// to TTLs against the pipeline clock at apply time — remaining lifetimes
// survive within that conversion's skew (sub-millisecond plus ring
// latency). Must run after the table is built and before Pipeline.Start.
func RestoreCore(p *Pipeline, t *core.Table, clientID int) (RecoverStats, error) {
	c, err := t.Client(clientID)
	if err != nil {
		return RecoverStats{}, err
	}
	defer c.Close()
	st, err := p.Recover(func(op Op, key uint64, exp int64, ver uint64, val []byte) error {
		switch op {
		case OpSet:
			ttl := time.Duration(0)
			if exp != 0 {
				ttl = time.Duration(exp - p.cfg.Clock())
				if ttl <= 0 {
					return nil // raced to expiry mid-recovery
				}
			}
			// Synchronous: the replay loop reuses val's backing buffer
			// for the next record, and the client only copies the value
			// into the table when the insert completes. Replaying the
			// recorded version keeps CAS tokens stable across a restart.
			c.PutTTLVer(key, val, ttl, ver)
		case OpDelete:
			c.Delete(key)
		}
		return nil
	})
	c.WaitAll()
	return st, err
}

// RestoreLockHash replays the pipeline's durable state into a LOCKHASH
// table, preserving absolute expiry deadlines exactly. Must run after
// the table is built and before Pipeline.Start.
func RestoreLockHash(p *Pipeline, t *lockhash.Table) (RecoverStats, error) {
	return p.Recover(func(op Op, key uint64, exp int64, ver uint64, val []byte) error {
		switch op {
		case OpSet:
			t.PutExpireVer(key, val, exp, ver)
		case OpDelete:
			t.Delete(key)
		}
		return nil
	})
}
