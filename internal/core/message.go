// Package core implements CPHASH itself (Section 3 of the paper): a hash
// table partitioned across per-core server goroutines, where client
// goroutines send Lookup/Insert/Decref operations over shared-memory
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
//     requests is reproduced by the batch-size ablation bench.
//   - message packing: the paper packs 8-byte lookups (8/line) and 16-byte
//     inserts (4/line) because message count is what a server core spends
//     its time on. Elements are named by their record offset in the
//     partition arena (partition.Store.Ref), not by pointer, so a reply is
//     one 4-byte ref (16 per line), exactly as dense as the paper's. A
//     request still carries one pointer, to the client-owned Op, which Go's
//     GC must see, so it is one 32-byte struct (2 per line). The batching
//     economics (one line transfer carries several messages, indices are
//     published per line) are identical.
//   - one message per insert, and per small lookup: the server copies
//     every insert's value out of the client's buffer and publishes it
//     before the reply, so an insert is exactly one request and one reply
//     whatever its size, its change record reaches the durability sink
//     before the reply, and an element is never visible NOT_READY. The
//     paper's §3.2 has the *client* copy into server-allocated space and
//     send a Ready message, to keep big copies out of the server core's
//     cache on an 80-core machine; on the few cores this runs on that
//     second message costs more than the copy (README, "Where this differs
//     from the paper"). A lookup hit of at most inlineMax bytes (one cache
//     line) is copied by the server into the client-owned Op and its
//     reference dropped before the reply, so no Decref follows; a larger
//     hit keeps the paper's Lookup+Decref: the client reads the pinned
//     element and returns it with a Decref message.
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
	opNop opcode = iota
	// opLookup asks the server to find keyop's key and bump its LRU
	// position. A hit of at most inlineMax bytes is copied into the
	// request's Op and answered with refInline; a larger one is answered
	// with the element's ref, pinned by one reference the client returns
	// with opDecref. A miss is refNone.
	opLookup
	// opInsert asks the server to store the Op's insVal (arg bytes) under
	// keyop's key. The server copies and publishes the value before it
	// replies refInline, or replies refNone if space cannot be made.
	opInsert
	// opDecref releases one reference on the element at ref. No reply.
	// Sent only for lookup hits larger than inlineMax.
	opDecref
	// opDelete unlinks keyop's key. Replies with refDeleted when the key
	// existed and refNone otherwise; either way the reply lets callers
	// synchronize on completion.
	opDelete
	// opRMW executes an atomic read-modify-write (CAS, add/replace,
	// append/prepend, incr/decr, touch) described by the request's Op
	// (its embedded RMWReq), entirely on the owning server goroutine — the
	// partition's single-owner discipline is what makes the composite
	// read+write atomic without any locking. The server writes results back into the
	// client-owned RMWReq before replying (the reply ring's
	// release/acquire pair publishes them), and replies with refNone.
	opRMW
)

// Reply refs that name no element (partition.Store.Ref is 0 for none and
// never below 8 otherwise): refNone is a miss, a failed insert, a delete of
// an absent key or a finished RMW; refDeleted a delete that removed the
// key; refInline a stored insert or a lookup hit completed in one message —
// the value already copied (out of the Op, or into it), no reference held.
const (
	refNone uint32 = iota
	refDeleted
	refInline
)

// inlineMax is the largest lookup hit, in bytes, that travels with its
// reply: one cache line. It is the only thing that selects between the
// one-message and the two-message lookup.
const inlineMax = 64

const (
	opShift = 60
	keyMask = 1<<opShift - 1
)

// request is one client→server message.
//
// Packing: op lives in the top 4 bits of keyop, the 60-bit key below it.
// arg carries the value size (low 32 bits) and TTL in milliseconds (high
// 32 bits; 0 = never expires) for opInsert. ref names the element for
// opDecref. o points at the client-owned Op for opLookup (the
// inline value buffer), opInsert (the payload and an optional explicit CAS
// version) and opRMW (the descriptor): the server reads and writes it only
// before producing the reply, and the reply ring's release/acquire pair
// hands it back to the client. The struct is 32 bytes; the ring flushes
// every 4 messages (128 B = 2 cache lines), preserving the paper's
// several-messages-per-line batching even though Go's pointer rules stop
// us from matching its exact byte density.
type request struct {
	keyop uint64
	arg   uint64
	ref   uint32
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

// reply is one server→client message: for opLookup the element's ref,
// refNone on a miss, or refInline; for opInsert refInline or refNone on
// failure; for opDelete refDeleted or refNone. Replies are matched to
// requests purely by FIFO order, as the rings preserve per-pair ordering.
type reply struct {
	ref uint32
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
	case opDecref:
		return fmt.Sprintf("Decref(%d)", r.key())
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
