// Package replica adds per-slot primary→follower replication on top of
// the durability pipeline (internal/persist): recovery, continuously.
//
// PR 5 left every record of a table totally ordered in a segmented WAL;
// a replica is therefore nothing more than a remote party that first
// replays the durable prefix (snapshot + sealed segments, exactly what
// Recover does locally) and then keeps applying the live tail. The
// Source side attaches a persist.TailSink to its pipeline and fans the
// tail into a bounded in-memory backlog; each connected follower gets
// the durable prefix streamed first (bounded by a RollAll barrier, so
// the two phases meet with overlap, never a gap) and the backlog after.
// Every record carries its WAL position, and the source skips backlog
// records at or before the barrier, so the overlap is never sent twice;
// key → partition → one appender → one stream means per-key FIFO
// survives the trip.
//
// Placement rides the rendezvous continuum: a slot's replicas live on
// cluster.Ring.Replicas(slot, d), the rank-1..d-1 scorers, and removing
// the owner provably shifts every rank up by exactly one — the new owner
// and every new standby already hold the slot. Failover promotion
// (rebalance.Migrator.Promote) is therefore a pure ownership flip — the
// data is already on the new owner — using the migration machinery's
// dual-read window until the follower's watermark is confirmed; the mesh
// then rewires so the new primary re-sources its surviving standbys,
// which reconnect warm when their positions are of its lineage.
//
// # Wire protocol
//
// One TCP connection per (follower, primary) pair, opened by the
// follower to the Source's dedicated replication listener. A position
// is a persist.WALPos, seg (8 LE) | off (8 LE); a vector holds one per
// WAL stream of the source, n of them:
//
//	handshake  F→S: magic "CPREPL05" | nameLen (1) | name | slot bitmap (32)
//	                | lineage (8 LE) | n (1) | n × position
//	handshake  S→F: magic "CPREPL05" | flags (1) | lineage (8 LE) | n (1)
//	frame      S→F: type (1) | seq (8 LE) | tsNanos (8 LE) | len (4 LE)
//	                | n × position | body
//	ack        F→S: 'A' | seq (8 LE) | n × position
//
// The replication position is a WAL position: per stream, the position
// just past the last record the follower holds (its table has applied
// every record of that stream up to there). Every frame carries the
// source's vector as of that frame, and the follower echoes its own in
// every ack. lineage names the source's data directory
// (persist.Pipeline.Lineage), so a position stays meaningful across
// source restarts on that directory.
//
// The hello's lineage and vector ask to resume instead of re-running
// the initial sync. The source grants (reply flags bit 0) iff the
// lineage is its own, the vector has one position per stream, and every
// stream's segment files still hold the record after its position
// (persist.Pipeline.Holds). A granted resume first catches up: records
// the backlog no longer holds are read from the segment files
// (persist.Pipeline.ReadStream, slot-filtered like the live tail), then
// the backlog supplies the rest, all in the same session. It streams
// zero sync entries. Lineage 0 (a follower that never completed a sync,
// or whose last one was cut short) never matches. A denied resume falls
// back to the full initial sync. The reply's n is the source's stream
// count.
//
// Frame types: 'D' carries a batch of records (body is len bytes); 'S'
// marks the end of the initial sync; 'R' ends a resume's catch-up (the
// follower holds everything through the frame's vector); 'H' is an idle
// heartbeat. A 'D' body is a run of WAL frames exactly as the persister
// wrote them to its segments — length (4 LE) | crc32c (4 LE) | op (1) |
// key (8 LE) | expireAt ns (8 LE) | ver (8 LE) | value, see
// persist.DecodeFrames — so every record carries the CRC the persister
// computed, checked end to end: the follower verifies every record of a
// frame before it applies any, and a frame that fails applies nothing
// and is not acknowledged. Bodies are not compressed: every link in
// this tree is loopback or in-process. Peers speaking an older version
// are refused at the handshake.
//
// seq on 'D'/'H' frames is the Source's tail sequence covered so far:
// the watermark the follower acknowledges. It is local to one Source
// instance and serves lag and drain accounting, never resuming. tsNanos
// is the primary's clock at send time, from which the follower derives
// the staleness bound for follower reads. Initial-sync 'D' frames carry
// seq 0 and zero positions; the 'S' frame's vector is the sync's roll
// barrier.
//
// The in-memory backlog is only the fast path. A follower that falls
// behind it — a stalled applier, a slow link, a long initial sync —
// catches up from the segment files in the same session, the way a
// Kafka consumer reads its log by offset. A full resync remains only for
// a follower of another lineage, or one whose position lies in a
// segment a snapshot has since truncated away; it costs the table's
// size, not the outage's length.
package replica

import (
	"encoding/binary"
	"errors"
	"time"

	"cphash/internal/core"
	"cphash/internal/lockhash"
	"cphash/internal/persist"
	"cphash/internal/protocol"
)

const (
	replMagic = "CPREPL05"

	frameData       = byte('D')
	frameSyncDone   = byte('S')
	frameResumeDone = byte('R')
	frameHeartbeat  = byte('H')
	ackByte         = byte('A')

	// frameHeaderLen is a frame header's fixed part, before its vector.
	frameHeaderLen = 1 + 8 + 8 + 4
	// posLen is one encoded position.
	posLen = 8 + 8
	// ackFixedLen is an ack's fixed part, before its vector.
	ackFixedLen = 1 + 8

	// replyLen is the source's handshake reply: magic, flags, lineage,
	// stream count.
	replyLen = len(replMagic) + 1 + 8 + 1
	// replyFlagResumed (reply flags bit 0) grants the requested resume.
	replyFlagResumed = byte(1)

	// maxStreams is the most positions a vector can carry (its count is
	// one byte).
	maxStreams = 255

	// maxFrameLen rejects absurd lengths before allocating, mirroring the
	// WAL replay guard.
	maxFrameLen = 64 << 20
)

var (
	// errShort reports a hello or reply cut short: more bytes are needed.
	errShort = errors.New("replica: handshake cut short")
	// errMagic reports a hello or reply of another protocol or version.
	errMagic = errors.New("replica: bad handshake magic")
)

// hello is a follower's decoded handshake.
type hello struct {
	name    string
	slots   protocol.SlotSet
	lineage uint64           // 0 = no resume requested
	pos     []persist.WALPos // the follower's positions, one per stream of lineage
}

// allSlots reports whether the hello subscribes to every slot.
func (h *hello) allSlots() bool {
	for _, b := range h.slots {
		if b != 0xff {
			return false
		}
	}
	return true
}

// appendHello encodes a hello onto dst. name must be at most 255 bytes
// and pos at most maxStreams positions.
func appendHello(dst []byte, name string, slots *protocol.SlotSet, lineage uint64, pos []persist.WALPos) []byte {
	dst = append(dst, replMagic...)
	dst = append(dst, byte(len(name)))
	dst = append(dst, name...)
	dst = append(dst, slots[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, lineage)
	dst = append(dst, byte(len(pos)))
	n := len(dst)
	dst = append(dst, make([]byte, len(pos)*posLen)...)
	putPositions(dst[n:], pos)
	return dst
}

// decodeHello decodes the hello at the start of b, returning it and its
// length. A proper prefix of a hello returns errShort.
func decodeHello(b []byte) (h hello, n int, err error) {
	if len(b) <= len(replMagic) {
		if n := min(len(b), len(replMagic)); string(b[:n]) != replMagic[:n] {
			return h, 0, errMagic
		}
		return h, 0, errShort
	}
	if string(b[:len(replMagic)]) != replMagic {
		return h, 0, errMagic
	}
	nameEnd := len(replMagic) + 1 + int(b[len(replMagic)])
	fixedEnd := nameEnd + len(h.slots) + 8 + 1
	if len(b) < fixedEnd {
		return h, 0, errShort
	}
	count := int(b[fixedEnd-1])
	n = fixedEnd + count*posLen
	if len(b) < n {
		return h, 0, errShort
	}
	h.name = string(b[len(replMagic)+1 : nameEnd])
	copy(h.slots[:], b[nameEnd:])
	h.lineage = binary.LittleEndian.Uint64(b[fixedEnd-9:])
	h.pos = decodePositions(make([]persist.WALPos, count), b[fixedEnd:n])
	return h, n, nil
}

// reply is the source's decoded handshake answer.
type reply struct {
	resumed bool
	lineage uint64
	streams int
}

// appendReply encodes a reply onto dst.
func appendReply(dst []byte, r reply) []byte {
	dst = append(dst, replMagic...)
	var flags byte
	if r.resumed {
		flags |= replyFlagResumed
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint64(dst, r.lineage)
	return append(dst, byte(r.streams))
}

// decodeReply decodes a whole reply (replyLen bytes).
func decodeReply(b []byte) (reply, error) {
	if len(b) < replyLen {
		return reply{}, errShort
	}
	if string(b[:len(replMagic)]) != replMagic {
		return reply{}, errMagic
	}
	return reply{
		resumed: b[len(replMagic)]&replyFlagResumed != 0,
		lineage: binary.LittleEndian.Uint64(b[len(replMagic)+1:]),
		streams: int(b[replyLen-1]),
	}, nil
}

// putPositions encodes a vector into b, which holds len(pos)*posLen bytes.
func putPositions(b []byte, pos []persist.WALPos) {
	for i, p := range pos {
		binary.LittleEndian.PutUint64(b[i*posLen:], p.Seg)
		binary.LittleEndian.PutUint64(b[i*posLen+8:], p.Off)
	}
}

// decodePositions decodes len(dst) positions from b into dst.
func decodePositions(dst []persist.WALPos, b []byte) []persist.WALPos {
	for i := range dst {
		dst[i] = persist.WALPos{
			Seg: binary.LittleEndian.Uint64(b[i*posLen:]),
			Off: binary.LittleEndian.Uint64(b[i*posLen+8:]),
		}
	}
	return dst
}

// putFrameHeader stamps a frame header, vector included, into dst.
func putFrameHeader(dst []byte, typ byte, seq uint64, ts int64, bodyLen int, pos []persist.WALPos) {
	dst[0] = typ
	binary.LittleEndian.PutUint64(dst[1:9], seq)
	binary.LittleEndian.PutUint64(dst[9:17], uint64(ts))
	binary.LittleEndian.PutUint32(dst[17:21], uint32(bodyLen))
	putPositions(dst[frameHeaderLen:], pos)
}

// Applier applies replicated records to the follower's local table. All
// calls happen on the follower's single apply goroutine. Flush is the
// per-frame barrier: record buffers passed to Apply stay valid until the
// next Flush returns, so pipelined appliers may defer completion to it.
type Applier interface {
	Apply(op persist.Op, key uint64, expireAt int64, ver uint64, value []byte) error
	Flush() error
}

// CoreApplier replays into a CPHASH table through a dedicated client
// handle, pipelining a whole frame between Flushes (the same WaitAll
// discipline persist.RestoreCore uses, minus the per-record round trip).
type CoreApplier struct {
	c     *core.Client
	clock func() int64
	ops   []*core.Op
}

// NewCoreApplier builds an Applier over a CPHASH table's client handle
// clientID, which must be reserved for the applier (the follower applies
// from one goroutine; core client handles are single-goroutine). Expiry
// deadlines are converted to TTLs against clock at apply time, the same
// skew window RestoreCore accepts. Close releases the handle.
func NewCoreApplier(t *core.Table, clientID int, clock func() int64) (*CoreApplier, error) {
	c, err := t.Client(clientID)
	if err != nil {
		return nil, err
	}
	if clock == nil {
		clock = func() int64 { return time.Now().UnixNano() }
	}
	return &CoreApplier{c: c, clock: clock}, nil
}

func (a *CoreApplier) Apply(op persist.Op, key uint64, expireAt int64, ver uint64, value []byte) error {
	switch op {
	case persist.OpSet:
		ttl := time.Duration(0)
		if expireAt != 0 {
			ttl = time.Duration(expireAt - a.clock())
			if ttl <= 0 {
				return nil // expired in flight
			}
		}
		a.ops = append(a.ops, a.c.InsertTTLVerAsync(key, value, ttl, ver))
	case persist.OpDelete:
		a.ops = append(a.ops, a.c.DeleteAsync(key))
	}
	return nil
}

func (a *CoreApplier) Flush() error {
	a.c.WaitAll()
	for _, o := range a.ops {
		a.c.Release(o)
	}
	a.ops = a.ops[:0]
	return nil
}

// Close flushes and releases the table client handle.
func (a *CoreApplier) Close() {
	_ = a.Flush()
	a.c.Close()
}

// lockHashApplier replays into a LOCKHASH table, preserving absolute
// deadlines exactly (PutExpireVer), mirroring persist.RestoreLockHash.
type lockHashApplier struct{ t *lockhash.Table }

// NewLockHashApplier builds an Applier over a LOCKHASH table.
func NewLockHashApplier(t *lockhash.Table) Applier {
	return &lockHashApplier{t: t}
}

func (a *lockHashApplier) Apply(op persist.Op, key uint64, expireAt int64, ver uint64, value []byte) error {
	switch op {
	case persist.OpSet:
		a.t.PutExpireVer(key, value, expireAt, ver)
	case persist.OpDelete:
		a.t.Delete(key)
	}
	return nil
}

func (a *lockHashApplier) Flush() error { return nil }
