package persist

import (
	"errors"
	"fmt"
	"io/fs"
)

// This file is the replication surface of the durability pipeline: a
// fanout of the live WAL tail plus a replay of the durable prefix while
// the pipeline is running. internal/replica composes the two into
// "recovery, continuously" — a follower first replays the durable state
// up to a roll barrier, then applies the tail records published after
// the fanout was attached. Because every record reaches exactly one
// appender (key → partition → stream), the overlap between the two
// phases replays idempotently, last writer wins.

// TailSink observes every WAL record at the moment the persister writes
// it to the segment writer. TailRecord is called on the persister
// goroutines (one per stream, so calls may be concurrent across streams
// but are ordered per stream, and therefore per key). frame is the
// record exactly as the segment receives it: the length and CRC header
// the persister has just computed, then the payload (see DecodeFrames).
// It is only valid for the duration of the call, as its buffer is
// recycled. Implementations must copy what they keep and must not
// block: they sit on the durability hot path.
type TailSink interface {
	TailRecord(frame []byte)
}

// SetTailSink attaches (or, with nil, detaches) the WAL tail fanout.
// Records written to segments after the attach is observed are
// guaranteed to reach the sink; to bound the records that may have
// missed it, call RollAll after attaching — every record absent from the
// sink is then in a segment below the returned roll barrier.
func (p *Pipeline) SetTailSink(ts TailSink) {
	if ts == nil {
		p.tailSink.Store(nil)
		return
	}
	p.tailSink.Store(&ts)
}

// RollAll seals every stream's current segment and returns the fresh
// segments' seqs — a replay barrier: all records drained before the call
// live in segments strictly below their stream's returned seq. The
// pipeline must be running.
func (p *Pipeline) RollAll() (map[int]uint64, error) {
	if !p.started.Load() || p.closed.Load() {
		return nil, fmt.Errorf("persist: pipeline not running")
	}
	out := make(map[int]uint64, len(p.streams))
	for _, s := range p.streams {
		seq, err := s.roll()
		if err != nil {
			return nil, err
		}
		out[s.id] = seq
	}
	return out, nil
}

// replayAttempts bounds ReplayDurable's restarts when the snapshotter
// truncates files out from under it.
const replayAttempts = 5

// ReplayDurable streams the durable state — newest valid snapshot, then
// sealed WAL segments below the per-stream bound (as returned by
// RollAll) — into apply, in last-writer-wins order, while the pipeline
// is RUNNING. This is Recover's online sibling: the snapshotter may
// delete a file mid-replay (it was covered by a newer snapshot), in
// which case the whole replay restarts from a fresh directory scan —
// apply must therefore tolerate re-application from the start, which the
// log's idempotent replay semantics already require. Set records whose
// deadline has elapsed arrive as OpDelete, exactly as in Recover.
func (p *Pipeline) ReplayDurable(before map[int]uint64, apply func(op Op, key uint64, expireAt int64, ver uint64, value []byte) error) (records int64, err error) {
	for try := 0; try < replayAttempts; try++ {
		n, err := p.replayDurableOnce(before, apply)
		if err == nil {
			return n, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return n, err
		}
		// A snapshot or segment vanished (covered by a newer snapshot):
		// rescan and replay again from the top.
	}
	return 0, fmt.Errorf("persist: replay kept racing snapshot truncation (%d attempts)", replayAttempts)
}

func (p *Pipeline) replayDurableOnce(before map[int]uint64, apply func(op Op, key uint64, expireAt int64, ver uint64, value []byte) error) (int64, error) {
	segs, snaps, err := scanDir(p.cfg.Dir)
	if err != nil {
		return 0, err
	}
	br := newReplayReader()
	var records int64
	var minSeqs map[int]uint64
	for i := len(snaps) - 1; i >= 0; i-- {
		s := snaps[i]
		if _, _, err := readSnapshot(br, s.path, nil); err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return records, err // deleted underfoot: restart
			}
			continue // invalid: fall back to an older snapshot, like Recover
		}
		now := p.cfg.Clock()
		n, ms, err := readSnapshot(br, s.path, func(key uint64, exp int64, ver uint64, val []byte) error {
			if exp != 0 && exp <= now {
				return nil
			}
			return apply(OpSet, key, exp, ver, val)
		})
		if err != nil {
			return records, fmt.Errorf("persist: replaying snapshot %s: %w", s.path, err)
		}
		records += n
		minSeqs = ms
		break
	}
	minOverall := minSeqOverall(minSeqs)
	for _, seg := range segs {
		// Below the roll barrier only: the segment is sealed, never written
		// again. Segments of streams this run does not own (a previous run
		// with a different Streams config) predate every barrier seq — the
		// seq allocator is global and monotonic — so they replay whole.
		if b, ok := before[seg.stream]; ok && seg.seq >= b {
			continue
		}
		// Skip segments the snapshot covers, exactly as Recover does.
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
		n, _, err := replaySegment(br, seg.path, func(r Record) error {
			if r.Op == OpSet && r.ExpireAt != 0 && r.ExpireAt <= now {
				return apply(OpDelete, r.Key, 0, 0, nil)
			}
			return apply(r.Op, r.Key, r.ExpireAt, r.Ver, r.Value)
		})
		records += int64(n)
		if err != nil {
			return records, fmt.Errorf("persist: replaying %s: %w", seg.path, err)
		}
	}
	return records, nil
}
