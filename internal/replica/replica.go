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
// Records replay idempotently — key → partition → one appender → one
// stream means per-key FIFO survives the trip — so the overlap is
// harmless, last writer wins.
//
// Placement rides the rendezvous continuum: a slot's replicas live on
// cluster.Ring.Replicas(slot, d), the rank-1..d-1 scorers, and removing
// the owner provably shifts every rank up by exactly one — the new owner
// and every new standby already hold the slot. Failover promotion
// (rebalance.Migrator.Promote) is therefore a pure ownership flip — the
// data is already on the new owner — using the migration machinery's
// dual-read window until the follower's watermark is confirmed; the mesh
// then rewires so the new primary re-sources its surviving standbys,
// which reconnect warm via session resume.
//
// # Wire protocol
//
// One TCP connection per (follower, primary) pair, opened by the
// follower to the Source's dedicated replication listener:
//
//	handshake  F→S: magic "CPREPL04" | nameLen (1) | name | slot bitmap (32)
//	                | resumeSession (8 LE) | resumeSeq (8 LE)
//	handshake  S→F: magic "CPREPL04" | flags (1) | session (8 LE)
//	frame      S→F: type (1) | seq (8 LE) | tsNanos (8 LE) | len (4 LE) | body
//	ack        F→S: 'A' | seq (8 LE)
//
// resumeSession/resumeSeq ask the source to resume the follower's
// previous session at appliedSeq+1 instead of re-running the initial
// sync: the source grants (reply flags bit 0) iff the session id matches
// its own — sequence numbers are only comparable within one Source
// instance — and the backlog still covers the gap. A granted resume
// streams zero sync entries (a reconnect after a brief blip, or a mesh
// rewire that re-establishes an identical link, is warm); a denied one
// falls back to the full initial sync. resumeSession 0 (a follower that
// never synced) never matches.
//
// Frame types: 'D' carries a batch of records (body is len bytes); 'S'
// marks the end of the initial sync; 'R' accepts a resume (the follower
// is already synced at the frame's seq); 'H' is an idle heartbeat. A 'D'
// body is a run of WAL frames exactly as the persister wrote them to its
// segments — length (4 LE) | crc32c (4 LE) | op (1) | key (8 LE) |
// expireAt ns (8 LE) | ver (8 LE) | value, see persist.DecodeFrames — so
// every record carries the CRC the persister computed, checked end to
// end: the follower verifies every record of a frame before it applies
// any, and a frame that fails applies nothing and is not acknowledged.
// Bodies are not compressed: every link in this tree is loopback or
// in-process. Peers speaking an older version are refused at the
// handshake.
//
// seq on 'D'/'H' frames is the Source's tail sequence covered so far —
// the replication watermark the follower acknowledges; tsNanos is the
// primary's clock at send time, from which the follower derives the
// staleness bound for follower reads.
//
// Catch-up is backlog-only by design (the redis chain-replication
// trade): a follower that falls off the bounded backlog is disconnected
// and performs a full resync on reconnect, which the snapshot+segment
// replay makes proportional to the table size, not the outage length.
package replica

import (
	"encoding/binary"
	"time"

	"cphash/internal/core"
	"cphash/internal/lockhash"
	"cphash/internal/persist"
)

const (
	replMagic = "CPREPL04"

	frameData       = byte('D')
	frameSyncDone   = byte('S')
	frameResumeDone = byte('R')
	frameHeartbeat  = byte('H')
	ackByte         = byte('A')

	frameHeaderLen = 1 + 8 + 8 + 4
	ackLen         = 1 + 8

	// helloResumeLen is the trailer of the follower hello: the session id
	// it wants to resume and the seq it has applied through.
	helloResumeLen = 8 + 8
	// replyLen is the source's handshake reply: magic, flags, session id.
	replyLen = len(replMagic) + 1 + 8
	// replyFlagResumed (reply flags bit 0) grants the requested resume.
	replyFlagResumed = byte(1)

	// maxFrameLen rejects absurd lengths before allocating, mirroring the
	// WAL replay guard.
	maxFrameLen = 64 << 20
)

func putFrameHeader(dst []byte, typ byte, seq uint64, ts int64, bodyLen int) {
	dst[0] = typ
	binary.LittleEndian.PutUint64(dst[1:9], seq)
	binary.LittleEndian.PutUint64(dst[9:17], uint64(ts))
	binary.LittleEndian.PutUint32(dst[17:21], uint32(bodyLen))
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
// deadlines exactly (PutExpire), mirroring persist.RestoreLockHash.
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
