package core

import (
	"math"
	"time"

	"cphash/internal/partition"
	"cphash/internal/ring"
)

// OpType identifies an asynchronous operation kind.
type OpType uint8

const (
	// OpLookup finds a key and pins its element until Release.
	OpLookup OpType = iota
	// OpInsert stores a value under a key.
	OpInsert
	// OpDelete removes a key.
	OpDelete
	// OpRMW executes an atomic read-modify-write on the owning server.
	OpRMW
)

// Op is an in-flight asynchronous operation (a future). Ops are created by
// Client.LookupAsync/InsertAsync/DeleteAsync, complete during Client.Poll
// (or Wait/WaitAll), and must be returned with Client.Release, which also
// sends the Decref message for lookup hits larger than one cache line. Ops
// are recycled; do not retain one past Release.
//
// Lookup, insert and RMW requests carry a pointer to their Op. Between
// issue and the reply the owning server goroutine may read insVal and rmw
// and write rmw's outcome fields, inlineLen, inlineVer and inline; the
// client touches none of them until it has consumed the reply.
type Op struct {
	typ    OpType
	key    Key
	insVal []byte // insert payload; copied into the element by the server (≤ inlineMax) or on reply
	elem   partition.Element
	server int
	done   bool
	hit    bool
	next   *Op // client free list
	// rmw is the read-modify-write descriptor for OpRMW (inputs filled by
	// the client, results written by the server before its reply) and the
	// version carrier for inserts (Ver 0 = assign next). Embedding it in
	// the Op keeps RMW issue/complete allocation-free: the descriptor
	// recycles with the Op.
	rmw partition.RMWReq
	// inline holds the value (and inlineVer its CAS version) of a lookup
	// hit of at most inlineMax bytes: the hit is then complete in one
	// message, with no element pinned (elem stays nil).
	inlineLen int
	inlineVer uint64
	inline    [inlineMax]byte
}

// Type returns the operation kind.
func (o *Op) Type() OpType { return o.typ }

// Key returns the operation's key.
func (o *Op) Key() Key { return o.key }

// Done reports whether the reply has been processed. It becomes true only
// inside Client.Poll/Wait/WaitAll on the owning goroutine.
func (o *Op) Done() bool { return o.done }

// Hit reports success: a lookup found the key; an insert obtained space; a
// delete found (and removed) the key. Valid only after Done.
func (o *Op) Hit() bool { return o.hit }

// Value returns the value bytes of a completed lookup hit. The slice
// aliases the Op (values of at most one cache line) or partition memory
// owned by the server; either way it is valid until Release.
func (o *Op) Value() []byte {
	if !o.done || !o.hit || o.typ != OpLookup {
		return nil
	}
	if o.elem == nil {
		return o.inline[:o.inlineLen]
	}
	return o.elem.Value()
}

// Size returns the value size of a completed lookup hit.
func (o *Op) Size() int {
	if !o.done || !o.hit || o.typ != OpLookup {
		return 0
	}
	if o.elem == nil {
		return o.inlineLen
	}
	return o.elem.Size()
}

// Version returns the CAS version of a completed lookup hit (0 otherwise).
func (o *Op) Version() uint64 {
	if !o.done || !o.hit || o.typ != OpLookup {
		return 0
	}
	if o.elem == nil {
		return o.inlineVer
	}
	return o.elem.Version()
}

// TwoPhase reports whether an insert takes the paper's two-message path
// (value larger than one cache line): its value becomes visible, and its
// change record reaches the sink, only when the server later processes the
// fire-and-forget Ready — not by the time the op is Done. A one-message
// insert is published before its reply, so ring FIFO order alone makes it
// visible to every later operation from this client.
func (o *Op) TwoPhase() bool { return o.typ == OpInsert && len(o.insVal) > inlineMax }

// RMW returns the op's read-modify-write descriptor: inputs as issued
// and, once the op is Done, the server-written results (Status, OutVer,
// Num). Valid until Release.
func (o *Op) RMW() *partition.RMWReq { return &o.rmw }

// pendingFIFO is a per-server queue of ops awaiting replies. Replies are
// matched to requests by order alone: rings are FIFO per (client, server)
// pair and only Lookup/Insert/Delete produce replies.
type pendingFIFO struct {
	buf  []*Op
	head int
}

func (q *pendingFIFO) push(o *Op) { q.buf = append(q.buf, o) }

func (q *pendingFIFO) pop() *Op {
	o := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head > 64 && q.head*2 > len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return o
}

func (q *pendingFIFO) len() int { return len(q.buf) - q.head }

// Client is a handle through which one goroutine issues operations to the
// table — the paper's "client thread". It owns one request/reply ring pair
// per server. A Client must not be used from multiple goroutines.
type Client struct {
	t    *Table
	id   int
	to   []*ring.SPSC[request]
	from []*ring.SPSC[reply]
	park *parker // kicked by a server that consumed from or replied to this client

	pending []pendingFIFO
	// replyBuf holds the batch of replies being completed: those of
	// server batchSrv, of which replyBuf[batchPos:batchLen] are still to
	// do. The cursor lives here, not in Poll, because completing an insert
	// sends a Ready message, and send polls when the request ring is full:
	// the nested Poll must carry on from the interrupted batch, in order.
	replyBuf                     []reply
	batchSrv, batchPos, batchLen int
	outstanding                  int
	// maxOutstanding bounds in-flight replied operations (the paper's
	// pipeline/batch size; 1,000 in §6.1). IssueAsync blocks (polling)
	// at the bound.
	maxOutstanding int

	freeOps *Op

	// stats
	issued    int64
	completed int64
}

// SetPipeline bounds the number of outstanding operations (default: 1,000,
// the paper's batch size). The bound must be ≥ 1.
func (c *Client) SetPipeline(n int) {
	if n < 1 {
		n = 1
	}
	c.maxOutstanding = n
}

// Outstanding returns the number of issued-but-incomplete operations.
func (c *Client) Outstanding() int { return c.outstanding }

// Issued and Completed return lifetime operation counts.
func (c *Client) Issued() int64    { return c.issued }
func (c *Client) Completed() int64 { return c.completed }

// newOp takes an Op off the free list (or allocates one) and resets what
// the last use may have left behind. Release already dropped elem, insVal
// and an RMW descriptor, and the inline buffer is read only after a server
// has written it, so the line-sized buffer is never cleared.
func (c *Client) newOp(typ OpType, key Key) *Op {
	o := c.freeOps
	if o == nil {
		return &Op{typ: typ, key: key & keyMask}
	}
	c.freeOps = o.next
	o.typ, o.key, o.done, o.hit, o.next = typ, key&keyMask, false, false, nil
	return o
}

// LookupAsync issues a lookup. The returned Op completes during a future
// Poll/Wait. A hit of at most one cache line (64 B) arrives whole with the
// reply and costs one message; for a larger hit the Op pins the server's
// element and Release sends the Decref.
func (c *Client) LookupAsync(key Key) *Op {
	o := c.newOp(OpLookup, key)
	c.issue(o, request{keyop: makeKeyop(opLookup, key), o: o})
	return o
}

// InsertAsync issues an insert of value under key. A value of at most one
// cache line (64 B) is copied and published by the server before it
// replies: one message, and visible to everything behind it on the ring.
// A larger value is copied into server-allocated space when the allocation
// reply arrives (the paper's client-copies rule, §3.2), then a Ready
// message publishes it. The caller must keep value unchanged until the op
// is Done.
func (c *Client) InsertAsync(key Key, value []byte) *Op {
	return c.InsertTTLVerAsync(key, value, 0, 0)
}

// InsertTTLAsync is InsertAsync with a time-to-live: the element becomes
// invisible once ttl elapses on the server's clock (resolution one
// millisecond, rounded up; capped at ~49 days). ttl <= 0 means "never
// expires". The TTL rides the insert message's packed arg word, so a TTL
// insert costs what a plain one does: one message up to 64 B, the paper's
// two beyond.
func (c *Client) InsertTTLAsync(key Key, value []byte, ttl time.Duration) *Op {
	return c.InsertTTLVerAsync(key, value, ttl, 0)
}

// InsertTTLVerAsync is InsertTTLAsync with an explicit CAS version — the
// replay-side primitive that keeps versions stable across recovery,
// follower catch-up and slot migration. ver 0 is the normal assign-next
// insert. The version rides the op's embedded descriptor, so it costs no
// allocation and the message count is unchanged on both paths.
func (c *Client) InsertTTLVerAsync(key Key, value []byte, ttl time.Duration, ver uint64) *Op {
	o := c.newOp(OpInsert, key)
	if uint64(len(value)) > math.MaxUint32 {
		// The insert message packs the size into 32 bits of the arg word;
		// a larger value must fail cleanly, not store a wrapped size.
		o.done = true
		return o
	}
	o.insVal = value
	o.rmw.Ver = ver
	c.issue(o, request{keyop: makeKeyop(opInsert, key), arg: makeInsertArg(len(value), ttlMillis(ttl)), o: o})
	return o
}

// RMWAsync issues an atomic read-modify-write described by req (CAS,
// add/replace, append/prepend, incr/decr, touch). The descriptor's input
// fields are copied into the op; its StrKey/Val slices must stay
// unchanged until the op is Done. Results are read from Op.RMW() after
// completion; Hit reports Status == RMWStored.
func (c *Client) RMWAsync(key Key, req partition.RMWReq) *Op {
	o := c.newOp(OpRMW, key)
	o.rmw = req
	c.issue(o, request{keyop: makeKeyop(opRMW, key), o: o})
	return o
}

// ttlMillis converts a duration to the wire's 32-bit millisecond TTL,
// rounding up so any positive ttl expires, and capping at MaxUint32
// (~49 days). The cap is checked before the round-up so durations near
// MaxInt64 cannot overflow into an arbitrary finite TTL.
func ttlMillis(ttl time.Duration) uint32 {
	if ttl <= 0 {
		return 0
	}
	if ttl > math.MaxUint32*time.Millisecond {
		return math.MaxUint32
	}
	return uint32((ttl + time.Millisecond - 1) / time.Millisecond)
}

// DeleteAsync issues a delete.
func (c *Client) DeleteAsync(key Key) *Op {
	o := c.newOp(OpDelete, key)
	c.issue(o, request{keyop: makeKeyop(opDelete, key)})
	return o
}

// issue routes a request to the key's server, applying the pipeline bound.
func (c *Client) issue(o *Op, r request) {
	if c.maxOutstanding == 0 {
		c.maxOutstanding = 1000 // the paper's §6.1 pipeline depth
	}
	for spins := 0; c.outstanding >= c.maxOutstanding; {
		c.FlushAll()
		if c.Poll() == 0 {
			c.pause(&spins, c.repliesReady)
		}
	}
	s := c.t.PartitionOf(o.key)
	o.server = s
	c.send(s, r)
	c.pending[s].push(o)
	c.outstanding++
	c.issued++
}

// send enqueues a request to server s, waiting (and polling replies, so
// the system cannot deadlock) while the ring is full.
func (c *Client) send(s int, r request) {
	rq := c.to[s]
	if rq.Produce(r) {
		return
	}
	rq.Flush()
	c.t.kick(s) // the server may be parked while we wait for ring space
	for spins := 0; !rq.Produce(r); {
		if c.Poll() == 0 {
			// Ready messages sent from inside an earlier Poll take the
			// fast path above, which does not kick: they can refill the
			// ring after the server drained it and parked.
			c.t.kick(s)
			c.pause(&spins, func() bool { return !rq.Full() || c.repliesReady() })
		}
	}
}

// pause is a wait loop's step after a poll that completed nothing: up to
// clientSpins more polls, then a park until a server kicks this client.
// ready re-checks the loop's wait condition once the flag is set.
func (c *Client) pause(spins *int, ready func() bool) {
	if *spins < clientSpins {
		*spins++
		return
	}
	*spins = 0
	c.park.park(ready)
}

// repliesReady reports whether a server this client awaits has published
// a reply it has not consumed.
func (c *Client) repliesReady() bool {
	for s := range c.from {
		if c.pending[s].len() > 0 && c.from[s].Len() > 0 {
			return true
		}
	}
	return false
}

// FlushAll publishes all privately buffered requests on every ring and
// wakes any parked server that now has work. Call it after issuing a
// batch; Wait and WaitAll call it implicitly.
func (c *Client) FlushAll() {
	for s, r := range c.to {
		r.Flush()
		if r.Len() > 0 {
			c.t.kick(s)
		}
	}
}

// Flush publishes buffered requests destined to key k's server only.
func (c *Client) Flush(k Key) {
	s := c.t.PartitionOf(k & keyMask)
	c.to[s].Flush()
	if c.to[s].Len() > 0 {
		c.t.kick(s)
	}
}

// Poll drains available replies from every server and completes their ops,
// returning how many ops completed. It never blocks.
func (c *Client) Poll() int {
	done := c.drainBatch() // non-empty only when re-entered from complete
	for s := range c.from {
		if c.pending[s].len() == 0 {
			continue
		}
		for {
			n := c.from[s].ConsumeBatch(c.replyBuf)
			if n == 0 {
				break
			}
			c.batchSrv, c.batchPos, c.batchLen = s, 0, n
			done += c.drainBatch()
		}
	}
	return done
}

// drainBatch completes what is left of the current reply batch. Each
// reply is taken off the batch before it is completed, so a Poll nested
// inside complete neither repeats it nor overtakes the ones behind it.
func (c *Client) drainBatch() int {
	done := 0
	for c.batchPos < c.batchLen {
		rep := c.replyBuf[c.batchPos]
		c.batchPos++
		c.complete(c.batchSrv, rep)
		done++
	}
	return done
}

// complete finishes the oldest pending op on server s with the given reply.
func (c *Client) complete(s int, rep reply) {
	o := c.pending[s].pop()
	o.done = true
	c.outstanding--
	c.completed++
	switch o.typ {
	case OpLookup:
		// A one-message hit is already in o.inline (the server wrote it
		// before replying, like an RMW's results below) and pins nothing.
		o.hit = rep.ref != refNone
		if o.hit && rep.ref != refInline {
			o.elem = c.t.parts[s].Elem(rep.ref)
		}
	case OpInsert:
		o.hit = rep.ref != refNone
		if !o.hit || rep.ref == refInline {
			break // no space, or stored and published by the server
		}
		// The server allocated NOT_READY space; copy the bytes here in the
		// client (so large values wipe the *client's* cache, not the
		// server's — §3.2) and publish with Ready.
		copy(c.t.parts[s].Elem(rep.ref).Value(), o.insVal)
		c.send(s, request{keyop: makeKeyop(opReady, o.key), ref: rep.ref})
	case OpDelete:
		o.hit = rep.ref == refDeleted
	case OpRMW:
		// The server wrote Status/OutVer/Num into o.rmw before replying;
		// consuming the reply from the SPSC ring is the acquire that makes
		// those writes visible here.
		o.hit = o.rmw.Status == partition.RMWStored
	}
}

// Wait blocks until o is done, flushing pending requests first. It polls
// for replies a few dozen times, then parks until a server that replied
// to this client kicks it, so a long wait costs no CPU and no scheduler
// round trips.
func (c *Client) Wait(o *Op) {
	for spins := 0; !o.done; {
		// Flushing every iteration also publishes Ready messages generated
		// while completing insert replies inside Poll.
		c.FlushAll()
		if c.Poll() == 0 {
			c.pause(&spins, c.repliesReady)
		}
	}
}

// WaitAll blocks, like Wait, until every outstanding op is done.
func (c *Client) WaitAll() {
	for spins := 0; c.outstanding > 0; {
		c.FlushAll()
		if c.Poll() == 0 {
			c.pause(&spins, c.repliesReady)
		}
	}
	c.FlushAll() // publish Ready/Decref generated by the final completions
}

// Release finishes the caller's use of op and recycles the Op. A lookup hit
// larger than one cache line pinned the server's element, so Release sends
// the Decref that lets the server reclaim it; a hit that arrived inline
// holds no reference and sends nothing. Every op must be Released exactly
// once, after Done.
func (c *Client) Release(o *Op) {
	if !o.done {
		c.Wait(o)
	}
	if o.elem != nil { // only a two-message lookup hit holds an element
		c.send(o.server, request{keyop: makeKeyop(opDecref, o.key), ref: c.t.parts[o.server].Ref(o.elem)})
		o.elem = nil
	}
	o.insVal = nil
	if o.typ == OpRMW {
		o.rmw = partition.RMWReq{} // drop StrKey/Val references
	}
	o.next = c.freeOps
	c.freeOps = o
}

// --- synchronous convenience API ---

// Get looks up key and appends the value to dst, returning the extended
// slice and whether the key was found. The returned bytes are a copy and
// remain valid indefinitely.
func (c *Client) Get(key Key, dst []byte) ([]byte, bool) {
	o := c.LookupAsync(key)
	c.Flush(key)
	c.Wait(o)
	ok := o.hit
	if ok {
		dst = append(dst, o.Value()...)
	}
	c.Release(o)
	return dst, ok
}

// Put stores value under key, reporting whether space was obtained.
func (c *Client) Put(key Key, value []byte) bool {
	return c.PutTTL(key, value, 0)
}

// PutTTL stores value under key with a time-to-live (0 = never expires),
// reporting whether space was obtained.
func (c *Client) PutTTL(key Key, value []byte, ttl time.Duration) bool {
	o := c.InsertTTLAsync(key, value, ttl)
	c.Flush(key)
	c.Wait(o)
	ok := o.hit
	c.Release(o)
	return ok
}

// PutTTLVer stores value under key with an explicit CAS version (replay
// paths; ver 0 = assign next), reporting whether space was obtained.
func (c *Client) PutTTLVer(key Key, value []byte, ttl time.Duration, ver uint64) bool {
	o := c.InsertTTLVerAsync(key, value, ttl, ver)
	c.Flush(key)
	c.Wait(o)
	ok := o.hit
	c.Release(o)
	return ok
}

// RMW synchronously executes one read-modify-write, writing the results
// (Status, OutVer, Num) back into req.
func (c *Client) RMW(key Key, req *partition.RMWReq) {
	o := c.RMWAsync(key, *req)
	c.Flush(key)
	c.Wait(o)
	*req = o.rmw
	c.Release(o)
}

// Delete removes key, reporting whether it existed. It returns once the
// server has processed the delete.
func (c *Client) Delete(key Key) bool {
	o := c.DeleteAsync(key)
	c.Flush(key)
	c.Wait(o)
	ok := o.hit
	c.Release(o)
	return ok
}

// Close waits for outstanding operations, lets the servers drain any
// fire-and-forget Ready/Decref messages still queued, and deactivates the
// client slot so servers stop polling its rings. The Client must not be
// used afterwards.
func (c *Client) Close() {
	c.WaitAll()
	for spins := 0; !c.drained(); {
		c.pause(&spins, c.drained)
	}
	c.t.clientActive[c.id].Store(false)
}

// drained reports whether the servers have consumed every request this
// client sent, or have stopped and never will.
func (c *Client) drained() bool {
	if c.t.stop.Load() {
		return true
	}
	for _, r := range c.to {
		if !r.Drained() {
			return false
		}
	}
	return true
}
