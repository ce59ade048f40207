// Package core implements CPHASH itself (Section 3 of the paper): a hash
// table partitioned across per-core server goroutines, where client
// goroutines send Lookup/Insert/Delete/RMW operations over shared-memory
// SPSC rings instead of locking shared state.
//
// # Mapping from the paper to this implementation
//
//   - "server thread pinned to a hardware thread" → one goroutine per
//     partition that calls runtime.LockOSThread (Go cannot pin to a *core*,
//     only to an OS thread; the README's "Where this differs from the
//     paper" says why the shape of the results survives this
//     substitution).
//   - message passing via pre-allocated circular buffers → internal/ring
//     SPSC rings, one pair per (client, server), with temporary write
//     indices and cache-line-granularity flushing exactly as in §3.4.
//   - batching: clients keep up to Config.MaxOutstanding operations in
//     flight and flush request rings on cache-line boundaries or when they
//     start waiting; the paper's sweet spot of 512–8,192 outstanding
//     requests is reproduced by the batch-size ablation bench. A server
//     batches its table work too: it prefetches every consumed batch's
//     buckets and records (partition.Store.Prefetch) before executing it.
//   - message packing: the paper packs 8-byte lookups (8/line) and 16-byte
//     inserts (4/line) because message count is what a server core spends
//     its time on. A reply here is one 4-byte status word (16 per line),
//     as dense as the paper's. A request carries one pointer, to the
//     client-owned Op, which Go's GC must see, so it is one 32-byte struct
//     (2 per line). The batching economics (one line transfer carries
//     several messages, indices are published per line) are identical.
//   - one message per operation: the owning server copies every insert's
//     value out of the client's Op and every lookup hit's value into it
//     (partition.Store.Put and Get) before it replies, so each operation
//     is exactly one request and one reply whatever its size, and no
//     element is ever shared with a client: a partition keeps no
//     reference count, no pin and no NOT_READY state. An insert's change
//     record reaches the durability sink before the reply. The
//     paper's §3.2 has the *client* copy: into server-allocated space
//     followed by a Ready message for an insert, out of the pinned element
//     followed by a Decref message for a lookup hit, to keep big copies
//     out of the server core's cache on an 80-core machine. On the few
//     cores this runs on the second message costs more than the copy
//     (README, "Where this differs from the paper").
package core

import (
	"fmt"

	"cphash/internal/partition"
)

// Key is re-exported so callers need not import internal/partition.
type Key = partition.Key

// MaxKey is the largest valid key (60 bits, as in the paper).
const MaxKey = partition.MaxKey

// opcode identifies a request message type. It occupies the top 4 bits of
// the packed key word, which is why keys are limited to 60 bits (§3.1).
type opcode uint64

const (
	// opLookup asks the server to find keyop's key and bump its LRU
	// position. On a hit the server copies the value and its CAS version
	// into the request's Op, drops its reference and replies statusHit; a
	// miss is statusMiss.
	opLookup opcode = iota
	// opInsert asks the server to store the Op's insVal (arg bytes) under
	// keyop's key. The server copies and publishes the value before it
	// replies statusHit, or replies statusMiss if space cannot be made.
	opInsert
	// opDelete unlinks keyop's key. Replies with statusDeleted when the key
	// existed and statusMiss otherwise; either way the reply lets callers
	// synchronize on completion.
	opDelete
	// opRMW executes an atomic read-modify-write (CAS, add/replace,
	// append/prepend, incr/decr, touch) described by the request's Op
	// (its embedded RMWReq), entirely on the owning server goroutine — the
	// partition's single-owner discipline is what makes the composite
	// read+write atomic without any locking. The server writes results back into the
	// client-owned RMWReq before replying (the reply ring's
	// release/acquire pair publishes them), and replies with statusMiss.
	opRMW
)

// Reply statuses: statusMiss is a miss, a failed insert, a delete of an
// absent key or a finished RMW; statusDeleted a delete that removed the
// key; statusHit a lookup hit or a stored insert — the value already
// copied, into the Op or out of it.
const (
	statusMiss uint32 = iota
	statusDeleted
	statusHit
)

const (
	opShift = 60
	keyMask = 1<<opShift - 1
)

// request is one client→server message.
//
// Packing: op lives in the top 4 bits of keyop, the 60-bit key below it.
// arg carries the value size (low 32 bits) and TTL in milliseconds (high
// 32 bits; 0 = never expires) for opInsert. o points at the client-owned
// Op for opLookup (the hit's destination), opInsert (the payload and an
// optional explicit CAS version) and opRMW (the descriptor): the server
// reads and writes it only before producing the reply, and the reply
// ring's release/acquire pair hands it back to the client. The struct is
// padded to 32 bytes, so the ring's flush of every 4 messages is 2 whole
// cache lines, preserving the paper's several-messages-per-line batching
// even though Go's pointer rules stop us from matching its exact byte
// density.
type request struct {
	keyop uint64
	arg   uint64
	_     uint64
	o     *Op
}

// makeInsertArg packs a value size and TTL into a request's arg word.
func makeInsertArg(size int, ttlMillis uint32) uint64 {
	return uint64(uint32(size)) | uint64(ttlMillis)<<32
}

func (r request) insertSize() int   { return int(uint32(r.arg)) }
func (r request) insertTTL() uint32 { return uint32(r.arg >> 32) }

// requestLineMsgs is the request-ring flush granularity.
const requestLineMsgs = 4

// reply is one server→client message: a status word. Replies are matched
// to requests purely by FIFO order, as the rings preserve per-pair
// ordering.
type reply struct {
	status uint32
}

// replyLineMsgs is the reply-ring flush granularity: one cache line of
// 4-byte replies.
const replyLineMsgs = 16

func makeKeyop(op opcode, key Key) uint64 {
	return uint64(op)<<opShift | (key & keyMask)
}

func (r request) op() opcode { return opcode(r.keyop >> opShift) }
func (r request) key() Key   { return r.keyop & keyMask }

func (r request) String() string {
	switch r.op() {
	case opLookup:
		return fmt.Sprintf("Lookup(%d)", r.key())
	case opInsert:
		if ttl := r.insertTTL(); ttl != 0 {
			return fmt.Sprintf("Insert(%d, %d bytes, ttl %dms)", r.key(), r.insertSize(), ttl)
		}
		return fmt.Sprintf("Insert(%d, %d bytes)", r.key(), r.insertSize())
	case opDelete:
		return fmt.Sprintf("Delete(%d)", r.key())
	case opRMW:
		if r.o != nil {
			return fmt.Sprintf("RMW(%d, %v)", r.key(), r.o.rmw.Op)
		}
		return fmt.Sprintf("RMW(%d)", r.key())
	default:
		return fmt.Sprintf("op%d(%d)", r.op(), r.key())
	}
}
