package persist

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// This file is the replication surface of the durability pipeline: a
// fanout of the live WAL tail, a replay of the durable prefix while the
// pipeline is running, and a reader of one stream's segment files from
// a position. internal/replica composes them into "recovery,
// continuously" — a follower first replays the durable state up to a
// roll barrier, then applies the tail records published after the
// fanout was attached, and one that falls behind the in-memory tail
// reads the records it missed back from the segments. Because every
// record reaches exactly one appender (key → partition → stream), a
// stream's records are one ordered log per key.

// WALPos is a position in one WAL stream: a segment seq and a byte
// offset in that segment. As a record's position it is the offset just
// past the record's frame, where the stream's next record begins; a
// follower that holds a record holds everything of its stream before
// it. Positions of one stream order by (Seg, Off), since segment seqs
// only grow. The zero WALPos precedes every record.
type WALPos struct {
	Seg uint64
	Off uint64
}

// Before reports whether a precedes b in their stream.
func (a WALPos) Before(b WALPos) bool {
	return a.Seg < b.Seg || a.Seg == b.Seg && a.Off < b.Off
}

// TailSink observes every WAL record at the moment the persister writes
// it to the segment writer. TailRecord is called on the persister
// goroutines (one per stream, so calls may be concurrent across streams
// but are ordered per stream, and therefore per key). frame is the
// record exactly as the segment receives it: the length and CRC header
// the persister has just computed, then the payload (see DecodeFrames).
// stream is the WAL stream it went to and pos its position there (just
// past the frame). frame is only valid for the duration of the call, as
// its buffer is recycled. Implementations must copy what they keep and
// must not block: they sit on the durability hot path.
type TailSink interface {
	TailRecord(frame []byte, stream int, pos WALPos)
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

// FlushAll flushes every stream's segment writer to its file and returns
// each stream's position after the flush, indexed by stream: the segment
// files hold every record of a stream before its position. Like RollAll
// it is a barrier for an attached TailSink — every record written after
// the returned position reaches the sink — but it seals nothing and
// opens no segment. The pipeline must be running.
func (p *Pipeline) FlushAll() ([]WALPos, error) {
	if !p.started.Load() || p.closed.Load() {
		return nil, fmt.Errorf("persist: pipeline not running")
	}
	out := make([]WALPos, len(p.streams))
	for i, s := range p.streams {
		pos, err := s.do(false)
		if err != nil {
			return nil, err
		}
		out[i] = pos
	}
	return out, nil
}

// Streams returns the number of WAL streams; they are numbered from 0.
func (p *Pipeline) Streams() int { return len(p.streams) }

// Holds reports whether stream's segment files still hold every record
// after pos, so that ReadStream can start there: the segment pos names
// exists (a snapshot has not truncated it away) and holds at least
// pos.Off bytes, or, for the segment being written, that many bytes have
// been handed to its writer. A position past the end of its segment —
// records a crash lost before they reached the file — is not held.
func (p *Pipeline) Holds(stream int, pos WALPos) bool {
	if stream < 0 || stream >= len(p.streams) || pos.Off < segHeaderLen {
		return false
	}
	if s := p.streams[stream]; s.seq.Load() == pos.Seg && uint64(s.written.Load()) >= pos.Off {
		return true
	}
	fi, err := os.Stat(filepath.Join(p.cfg.Dir, walName(stream, pos.Seg)))
	return err == nil && uint64(fi.Size()) >= pos.Off
}

// ReadStream reads stream's records after position from up to position
// to out of the segment files, in order, reading through br (reset onto
// each file): fn receives each whole frame exactly as the segment holds
// it, and its position. to must be a position the files already
// hold, as FlushAll returns; bytes past it are not read, though the
// persister may be appending them. A sealed segment's torn tail (a crash
// cut it short) ends that segment, as in recovery. The result wraps
// fs.ErrNotExist when a segment it needs is gone, deleted by a
// snapshot's truncation before or during the read.
func (p *Pipeline) ReadStream(br *bufio.Reader, stream int, from, to WALPos, fn func(frame []byte, pos WALPos) error) error {
	if !from.Before(to) {
		return nil
	}
	seqs := []uint64{from.Seg}
	if to.Seg != from.Seg {
		segs, _, err := scanDir(p.cfg.Dir)
		if err != nil {
			return err
		}
		for _, sg := range segs {
			if sg.stream == stream && sg.seq > from.Seg && sg.seq <= to.Seg {
				seqs = append(seqs, sg.seq)
			}
		}
	}
	if seqs[len(seqs)-1] != to.Seg {
		return fmt.Errorf("persist: stream %d segment %d: %w", stream, to.Seg, fs.ErrNotExist)
	}
	for i, seq := range seqs {
		start, until := int64(segHeaderLen), int64(0)
		if i == 0 {
			start = int64(from.Off)
		}
		if seq == to.Seg {
			until = int64(to.Off)
		}
		end := start
		_, _, err := scanSegment(br, filepath.Join(p.cfg.Dir, walName(stream, seq)), start, until, func(frame []byte, _ Record, e int64) error {
			end = e
			return fn(frame, WALPos{Seg: seq, Off: uint64(e)})
		})
		if err != nil {
			return err
		}
		if seq == to.Seg && end != until {
			return fmt.Errorf("persist: stream %d segment %d holds whole frames to offset %d, not %d", stream, seq, end, until)
		}
	}
	return nil
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

// SegmentStart returns the position at the start of segment seq, before
// its first record: a roll barrier as a position.
func SegmentStart(seq uint64) WALPos { return WALPos{Seg: seq, Off: segHeaderLen} }
