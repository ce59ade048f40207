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
	// OpLookup finds a key; the owning server copies a hit into the Op.
	OpLookup OpType = iota
	// OpInsert stores a value under a key.
	OpInsert
	// OpDelete removes a key.
	OpDelete
	// OpRMW executes an atomic read-modify-write on the owning server.
	OpRMW
)

// Op is an in-flight asynchronous operation (a future). Ops are created by
// Client.LookupAsync/InsertAsync/DeleteAsync/RMWAsync, complete during
// Client.Poll (or Wait/WaitAll), and must be returned with Client.Release.
// Ops are recycled; do not retain one past Release.
//
// Lookup, insert and RMW requests carry a pointer to their Op. Between
// issue and the reply the owning server goroutine may read insVal and rmw
// and write rmw's outcome fields, val and ver; the client touches none of
// them until it has consumed the reply.
type Op struct {
	typ    OpType
	key    Key
	insVal []byte // insert payload; copied into the element by the server before its reply
	done   bool
	hit    bool
	next   *Op // client free list
	// rmw is the read-modify-write descriptor for OpRMW (inputs filled by
	// the client, results written by the server before its reply) and the
	// version carrier for inserts (Ver 0 = assign next). Embedding it in
	// the Op keeps RMW issue/complete allocation-free: the descriptor
	// recycles with the Op.
	rmw partition.RMWReq
	// val and ver are a lookup hit's value and CAS version, copied by the
	// server before its reply. val's buffer recycles with the Op, up to
	// maxKeptVal bytes.
	val []byte
	ver uint64
}

// maxKeptVal is the largest lookup buffer Release keeps on a recycled Op.
// A value may be up to 16 MiB; without the bound one large hit would pin
// that much memory on the free list for good.
const maxKeptVal = 64 << 10

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

// lookupHit reports whether o is a completed lookup that found its key.
func (o *Op) lookupHit() bool { return o.done && o.hit && o.typ == OpLookup }

// Value returns the value bytes of a completed lookup hit: the server's
// copy, in a buffer the Op owns, valid until Release.
func (o *Op) Value() []byte {
	if !o.lookupHit() {
		return nil
	}
	return o.val
}

// Size returns the value size of a completed lookup hit.
func (o *Op) Size() int { return len(o.Value()) }

// Version returns the CAS version of a completed lookup hit (0 otherwise).
func (o *Op) Version() uint64 {
	if !o.lookupHit() {
		return 0
	}
	return o.ver
}

// RMW returns the op's read-modify-write descriptor: inputs as issued
// and, once the op is Done, the server-written results (Status, OutVer,
// Num). Valid until Release.
func (o *Op) RMW() *partition.RMWReq { return &o.rmw }

// pendingFIFO is a per-server queue of ops awaiting replies. Replies are
// matched to requests by order alone: rings are FIFO per (client, server)
// pair and every request produces exactly one reply.
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

	pending     []pendingFIFO
	replyBuf    []reply // Poll's batch of consumed replies
	outstanding int
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
// the last use may have left behind. Release already dropped insVal and an
// RMW descriptor, and val and ver are read only after a server has written
// them, so the lookup buffer is kept for reuse, never cleared.
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
// Poll/Wait. The owning server copies a hit of any size into the Op before
// it replies, so a lookup is one message and pins nothing.
func (c *Client) LookupAsync(key Key) *Op {
	o := c.newOp(OpLookup, key)
	c.issue(o, request{keyop: makeKeyop(opLookup, key), o: o})
	return o
}

// InsertAsync issues an insert of value under key. The server copies and
// publishes the value before it replies, whatever its size: one message,
// and visible to everything behind it on the ring. The caller must keep
// value unchanged until the op is Done.
func (c *Client) InsertAsync(key Key, value []byte) *Op {
	return c.InsertTTLVerAsync(key, value, 0, 0)
}

// InsertTTLAsync is InsertAsync with a time-to-live: the element becomes
// invisible once ttl elapses on the server's clock (resolution one
// millisecond, rounded up; capped at ~49 days). ttl <= 0 means "never
// expires". The TTL rides the insert message's packed arg word, so a TTL
// insert costs what a plain one does: one message.
func (c *Client) InsertTTLAsync(key Key, value []byte, ttl time.Duration) *Op {
	return c.InsertTTLVerAsync(key, value, ttl, 0)
}

// InsertTTLVerAsync is InsertTTLAsync with an explicit CAS version — the
// replay-side primitive that keeps versions stable across recovery,
// follower catch-up and slot migration. ver 0 is the normal assign-next
// insert. The version rides the op's embedded descriptor, so it costs no
// allocation and no extra message.
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
	c.issue(o, request{keyop: makeKeyop(opInsert, key), arg: uint64(ttlMillis(ttl)), o: o})
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
	done := 0
	for s := range c.from {
		if c.pending[s].len() == 0 {
			continue
		}
		for {
			n := c.from[s].ConsumeBatch(c.replyBuf)
			if n == 0 {
				break
			}
			for _, rep := range c.replyBuf[:n] {
				c.complete(s, rep)
			}
			done += n
		}
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
		// A hit is already in o.val and o.ver: the server wrote them
		// before replying, like an RMW's results below.
		o.hit = rep.status == statusHit
	case OpInsert:
		o.hit = rep.status == statusHit // stored and published by the server
	case OpDelete:
		o.hit = rep.status == statusDeleted
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
}

// Release finishes the caller's use of op and recycles the Op. It sends
// nothing: the server holds no reference on the caller's behalf. Every op
// must be Released exactly once, after Done.
func (c *Client) Release(o *Op) {
	if !o.done {
		c.Wait(o)
	}
	if cap(o.val) > maxKeptVal {
		o.val = nil
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

// Close waits for outstanding operations and deactivates the client slot
// so servers stop polling its rings. Every request gets a reply, so once
// WaitAll returns the servers have consumed everything this client sent.
// The Client must not be used afterwards.
func (c *Client) Close() {
	c.WaitAll()
	c.t.clientActive[c.id].Store(false)
}
