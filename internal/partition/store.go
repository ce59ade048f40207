package partition

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"time"

	"cphash/internal/obs"
)

// Key is a CPHash key. The paper's implementation limits keys to 60-bit
// integers (Section 3.1) so that the top bits of a packed message word can
// carry an opcode; we keep the same restriction and expose MaxKey.
type Key = uint64

// MaxKey is the largest valid key (60 bits, per the paper).
const MaxKey Key = 1<<60 - 1

// HeaderBytes is the size of the element header record that opens every
// element's arena block, ahead of its value. The paper's element header —
// key, size, bucket and LRU links — fits one cache line (§3.1); here it is
// 40 B, and it is the only per-element metadata there is. A record starts
// 8 B into a 16 B-aligned arena block, behind the block's boundary tag. An
// element of up to 16 value bytes is one 64 B block, and lies in one cache
// line when its block starts on one; any other record may straddle two
// lines (the key is always in the first), and Prefetch loads both ends.
const HeaderBytes = 40

// Header record layout. Links are record offsets in the partition arena
// (refs); 0 means "none", since the arena's 8-byte boundary tag keeps every
// record at offset 8 or above. The fields a chain walk reads sit first, and
// each uint64 stays 8-aligned. Bucket chains are singly linked: a chain
// holds about one element at the store's load factor, so an unlink finds
// its predecessor from the bucket head. No element outlives the call that
// touched it, so there is no reference count and no flag to keep.
const (
	recKey     = 0  // uint64
	recHNext   = 8  // uint32 bucket chain
	recSize    = 12 // uint32 value size in bytes
	recVersion = 16 // uint64 CAS version; unique per store, immutable per element
	recExpire  = 24 // int64 clock deadline in ns; 0 = never expires
	recLNext   = 32 // uint32 LRU list (unused under EvictRandom)
	recLPrev   = 36 // uint32
)

// CapacityForValues converts the paper's capacity convention — "bytes of
// values stored", excluding metadata — into the physical byte capacity a
// Store needs to hold n values of valueSize bytes each (headers plus
// allocator block rounding included). Benchmark harnesses use it so that
// "hash table capacity = working set" keeps the paper's meaning.
func CapacityForValues(n, valueSize int) int {
	if n < 1 {
		n = 1
	}
	per := int(blockFor(valueSize + HeaderBytes))
	// 1/16 headroom absorbs free-list fragmentation at full occupancy.
	c := n*per + n*per/16
	if min := HeaderBytes + minBlock*2; c < min {
		c = min // NewStore's floor for a single-element store
	}
	return c
}

// ChangeSink receives a partition's durable mutation stream. The store
// invokes it inline, on the goroutine that owns the store (CPHASH's server
// goroutine; LOCKHASH's caller under the partition spinlock), so calls for
// one partition are strictly ordered and never concurrent. Implementations
// must treat the value slice as borrowed: it aliases partition arena memory
// and is valid only for the duration of the call.
//
// The stream is the write-ahead contract internal/persist logs:
//
//   - Set fires for every stored value, once Put has copied it in and
//     before Put returns, with the element's absolute expiry deadline on
//     the store's clock (0 = never) and its CAS version.
//     Read-modify-write operations stream their RESULTING state through
//     the same Set — never the operation — so replaying the stream is
//     idempotent by construction.
//   - Delete fires for explicit removals: Delete and PurgeBuckets, plus
//     the rare insert-over-existing-key that unlinks the old element and
//     then fails to allocate (the key vanished with no Set to supersede
//     the logged old value).
//
// Evictions and TTL expiries are deliberately NOT streamed: a recovery may
// therefore resurrect entries the cache had dropped, which is harmless —
// they hold valid (never silently overwritten) data and simply re-expire
// or re-evict — and it keeps the no-TTL eviction path free of sink
// traffic. Recovery filters elapsed deadlines itself.
type ChangeSink interface {
	Set(key Key, value []byte, expireAt int64, version uint64)
	Delete(key Key)
}

// EvictionPolicy selects how a full partition makes room (Section 6.3).
type EvictionPolicy uint8

const (
	// EvictLRU evicts the least recently used element; lookups and inserts
	// maintain an LRU list (the paper's default).
	EvictLRU EvictionPolicy = iota
	// EvictRandom evicts a pseudo-randomly chosen element and maintains no
	// LRU state at all, matching the paper's random-eviction configuration.
	EvictRandom
)

func (p EvictionPolicy) String() string {
	switch p {
	case EvictLRU:
		return "lru"
	case EvictRandom:
		return "random"
	default:
		return fmt.Sprintf("EvictionPolicy(%d)", uint8(p))
	}
}

// Element is a view of one element's arena block: header record
// (HeaderBytes) then value. It is a slice, not an object: a partition holds
// no per-element heap memory. An Element is valid only until the next call
// on its store, which may move, free or reuse the block; a nil Element is a
// miss. Shipping code never holds one: Put and Get copy whole values.
type Element []byte

// Key returns the element's key.
func (e Element) Key() Key { return (*record)(e).key() }

// Size returns the value size in bytes.
func (e Element) Size() int { return len(e) - HeaderBytes }

// ExpireAt returns the element's expiry deadline on the store's clock in
// nanoseconds, or 0 for an element that never expires.
func (e Element) ExpireAt() int64 { return (*record)(e).expireAt() }

// Version returns the element's CAS version. Versions are assigned by the
// store (unique, monotone per partition) when an element is created and
// never change afterwards, so a compare-and-swap that captured the version
// at read time detects any intervening write.
func (e Element) Version() uint64 { return (*record)(e).u64(recVersion) }

// Value returns the value bytes. The slice aliases partition memory.
func (e Element) Value() []byte {
	if len(e) == HeaderBytes {
		return nil
	}
	return e[HeaderBytes:len(e):len(e)]
}

// Stats counts partition activity. All fields are cumulative. It is a
// snapshot type: the live counters are obs.PartitionMetrics atomics, so
// a Stats read from another goroutine (a /stats scrape racing the owner
// goroutine) never tears.
type Stats struct {
	Lookups   int64 // lookup requests processed
	Hits      int64 // lookups that found a live element
	Inserts   int64 // insert requests processed
	InsertErr int64 // inserts that failed for lack of space
	Evictions int64 // elements evicted to make room
	Deletes   int64 // explicit deletes
	Expired   int64 // elements removed because their TTL elapsed
	Elements  int64 // elements currently linked
	BytesIn   int64 // value bytes accepted by inserts
	BytesOut  int64 // value bytes returned by lookup hits
}

// Add merges o into s — aggregation across a table's partitions.
func (s *Stats) Add(o Stats) {
	s.Lookups += o.Lookups
	s.Hits += o.Hits
	s.Inserts += o.Inserts
	s.InsertErr += o.InsertErr
	s.Evictions += o.Evictions
	s.Deletes += o.Deletes
	s.Expired += o.Expired
	s.Elements += o.Elements
	s.BytesIn += o.BytesIn
	s.BytesOut += o.BytesOut
}

// Config parameterizes a partition store.
type Config struct {
	// CapacityBytes bounds the memory charged to values and headers. It is
	// also the arena size, so the bound is physical, not advisory.
	CapacityBytes int
	// Buckets is the number of hash buckets; 0 derives a size targeting
	// about one element per bucket assuming 8-byte values (the paper's
	// microbenchmark configuration). Rounded up to a power of two.
	Buckets int
	// Policy selects the eviction policy.
	Policy EvictionPolicy
	// Seed seeds the random-eviction generator; ignored under EvictLRU.
	Seed uint64
	// Clock supplies the store's notion of "now" in nanoseconds for TTL
	// expiry; nil uses the wall clock. Tests inject fake clocks to make
	// expiry deterministic.
	Clock func() int64
	// Sink, when non-nil, receives the store's mutation stream (see
	// ChangeSink). It is fixed for the store's lifetime.
	Sink ChangeSink
	// Metrics receives the store's hot-path counters. nil allocates a
	// private set — metrics are always on; there is no opt-out, and the
	// allocation gate holds with them enabled. Attach a SlotHeat to the
	// struct before NewStore to also record per-slot heat.
	Metrics *obs.PartitionMetrics
}

// Store is one CPHash partition: a chained hash table plus LRU list over an
// arena. Elements live entirely in the arena — header record and value in
// one block — and buckets and links are uint32 record offsets, so the
// garbage collector sees two pointer-free slices, not one object per
// entry. It is deliberately not safe for concurrent use — CPHASH gives each
// Store to one server goroutine, LOCKHASH wraps it in a lock.
type Store struct {
	mem     []byte   // the arena's slab: element records and values
	buckets []uint32 // chain heads (record offsets; 0 = empty)
	mask    uint64
	arena   *Arena
	policy  EvictionPolicy

	lruHead uint32 // most recently used
	lruTail uint32 // least recently used

	rng   uint64 // xorshift state for random eviction
	clock func() int64
	m     *obs.PartitionMetrics

	sweepCursor uint64 // next bucket SweepExpired examines
	ttlElems    int    // linked elements with a nonzero expiry deadline
	sink        ChangeSink

	// verNext is the next CAS version this store will assign. It starts at
	// 1 (version 0 means "assign one for me" on the insert paths) and only
	// grows; explicit-version inserts from recovery or migration replay
	// advance it past the replayed version so a later write can never
	// reissue a version a client may still hold (the CAS ABA hazard).
	verNext uint64

	// rmwBuf is the scratch the read-modify-write engine composes derived
	// values in (append/prepend concatenations, incr/decr decimal digits,
	// string-key framing). It must be store-owned: Put unlinks the old
	// element BEFORE allocating the new one, so the old bytes have to be
	// copied out first.
	rmwBuf []byte

	// prefetched is the sum of the bytes Prefetch loaded. It is never read;
	// storing it is what keeps the compiler from dropping the loads.
	prefetched uint64
}

// NewStore returns an empty partition with the given configuration.
func NewStore(cfg Config) (*Store, error) {
	if cfg.CapacityBytes < HeaderBytes+minBlock {
		return nil, fmt.Errorf("partition: capacity %d too small", cfg.CapacityBytes)
	}
	nb := cfg.Buckets
	if nb <= 0 {
		// Target about one element per bucket for 8-byte values. Such an
		// element is a 64 B block, so CapacityBytes/(HeaderBytes+minBlock)
		// rounded up to a power of two puts 0.56–1.125 elements in a bucket
		// when the arena is full.
		nb = cfg.CapacityBytes / (HeaderBytes + minBlock)
		if nb < 8 {
			nb = 8
		}
	}
	nb = 1 << bits.Len(uint(nb-1)) // next power of two
	arena, err := NewArena(cfg.CapacityBytes)
	if err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	clock := cfg.Clock
	if clock == nil {
		clock = func() int64 { return time.Now().UnixNano() }
	}
	m := cfg.Metrics
	if m == nil {
		m = &obs.PartitionMetrics{}
	}
	return &Store{
		mem:     arena.mem,
		buckets: make([]uint32, nb),
		mask:    uint64(nb - 1),
		arena:   arena,
		policy:  cfg.Policy,
		rng:     seed,
		clock:   clock,
		sink:    cfg.Sink,
		m:       m,
		verNext: 1,
	}, nil
}

// Stats returns a snapshot of the partition counters, built from atomic
// loads so it is safe to call from any goroutine while the owner
// goroutine mutates the store.
func (s *Store) Stats() Stats {
	snap := s.m.Snapshot()
	return Stats{
		Lookups:   snap.Lookups,
		Hits:      snap.Hits,
		Inserts:   snap.Inserts,
		InsertErr: snap.InsertErr,
		Evictions: snap.Evictions,
		Deletes:   snap.Deletes,
		Expired:   snap.Expired,
		Elements:  snap.Elements,
		BytesIn:   snap.BytesIn,
		BytesOut:  snap.BytesOut,
	}
}

// Metrics exposes the store's live counter block for scrape-time
// collectors.
func (s *Store) Metrics() *obs.PartitionMetrics { return s.m }

// Len returns the number of linked elements.
func (s *Store) Len() int { return int(s.m.Elements.Load()) }

// CapacityBytes returns the configured byte capacity.
func (s *Store) CapacityBytes() int { return s.arena.Capacity() }

// UsedBytes returns the arena bytes charged to linked elements (header
// records, values and block rounding).
func (s *Store) UsedBytes() int { return s.arena.Used() }

// elem returns the view of the element whose record is at ref.
func (s *Store) elem(ref uint32) Element {
	return Element(s.mem[ref : ref+HeaderBytes+s.rec(ref).u32(recSize)])
}

// --- header records ---

// record is an element's header, viewed in place in the arena. Its
// accessors are called with constant field offsets into a fixed-size
// array, so they compile to plain loads and stores.
type record [HeaderBytes]byte

// rec returns the header record at ref r.
func (s *Store) rec(r uint32) *record { return (*record)(s.mem[r:]) }

func (h *record) u32(f int) uint32      { return binary.LittleEndian.Uint32(h[f:]) }
func (h *record) put32(f int, v uint32) { binary.LittleEndian.PutUint32(h[f:], v) }
func (h *record) u64(f int) uint64      { return binary.LittleEndian.Uint64(h[f:]) }
func (h *record) put64(f int, v uint64) { binary.LittleEndian.PutUint64(h[f:], v) }
func (h *record) key() Key              { return h.u64(recKey) }
func (h *record) expireAt() int64       { return int64(h.u64(recExpire)) }

// expired reports whether the record's TTL has elapsed at clock reading now.
func (h *record) expired(now int64) bool { return h.expireAt() != 0 && now >= h.expireAt() }

// bucketIndex hashes a key to its chain. The mixer is the splitmix64
// finalizer — the "simple hash function" of §3.1.
func (s *Store) bucketIndex(k Key) uint64 {
	return Mix64(k) & s.mask
}

// Mix64 is the splitmix64 finalizer, used both for bucket selection within
// a partition and (by callers) for partition selection across servers.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SlotOfKey returns the cluster-continuum slot of a fixed key: the top
// eight bits of the mixed key. The same mixer drives bucket and
// partition selection, but those consume low bits, so slot choice is
// independent of intra-server placement. cluster.SlotOf delegates here,
// and per-slot heat accounting uses it, so placement and heat agree by
// construction.
func SlotOfKey(k Key) int {
	return int(Mix64(k&MaxKey) >> 56)
}

// The heat arrays index the same continuum; the two constants must agree
// (both expressions underflow a uint at compile time if they diverge).
const (
	_ = uint(obs.Slots - 256)
	_ = uint(256 - obs.Slots)
)

// heat books one operation against k's continuum slot when the store
// has a heat array attached; n is the value bytes moved. The nil check
// is a predictable branch, so tables that opt out (lockhash's thousands
// of partitions) pay nothing.
func (s *Store) heat(k Key, n int64) {
	if h := s.m.Heat; h != nil {
		h.Record(SlotOfKey(k), n)
	}
}

// Now returns the store's clock reading in nanoseconds; TTL deadlines are
// expressed on this clock.
func (s *Store) Now() int64 { return s.clock() }

// expireElement lazily removes an element whose deadline has passed,
// counting it as Expired (not a delete or eviction).
func (s *Store) expireElement(r uint32) {
	s.m.Expired.Inc()
	s.unlink(r)
}

// Get appends k's value to dst and returns the extended slice with the
// entry's CAS version; on a miss it returns dst unchanged and ok false. A
// hit moves k to the LRU head. An entry whose TTL has elapsed is removed
// here, lazily — the paper-style single-owner store makes this safe
// without locks — and misses.
func (s *Store) Get(k Key, dst []byte) (_ []byte, ver uint64, ok bool) {
	e := s.lookup(k)
	if e == nil {
		return dst, 0, false
	}
	return append(dst, e.Value()...), e.Version(), true
}

// lookup is Get's find half: it counts the lookup, reclaims an expired
// entry, moves a hit to the LRU head and returns it, or nil on a miss.
func (s *Store) lookup(k Key) Element {
	s.m.Lookups.Inc()
	r, h := s.find(k)
	if h == nil {
		s.heat(k, 0)
		return nil
	}
	// Read the clock only for elements that can expire, keeping the
	// paper's no-TTL hot path free of wall-clock overhead.
	if h.expireAt() != 0 && h.expired(s.clock()) {
		s.expireElement(r)
		s.heat(k, 0)
		return nil
	}
	size := h.u32(recSize)
	s.m.Hits.Inc()
	s.m.BytesOut.Add(int64(size))
	s.heat(k, int64(size))
	s.lruMoveFront(r)
	return Element(s.mem[r : r+HeaderBytes+size])
}

// Contains reports whether k is linked and unexpired without touching LRU
// state or (unlike Get) removing an expired element (used by tests and
// admin tooling).
func (s *Store) Contains(k Key) bool {
	_, h := s.find(k)
	return h != nil && !(h.expireAt() != 0 && h.expired(s.clock()))
}

// find returns the ref and record of k's linked element, or (0, nil).
func (s *Store) find(k Key) (uint32, *record) {
	for r := s.buckets[s.bucketIndex(k)]; r != 0; {
		h := s.rec(r)
		if h.key() == k {
			return r, h
		}
		r = h.u32(recHNext)
	}
	return 0, nil
}

// prefetchBatch is how many keys Prefetch covers: as many requests as a
// CPHASH server consumes from a ring at once.
const prefetchBatch = 32

// Prefetch loads, with plain reads, the memory that operations on keys are
// about to touch, so that their cache misses overlap instead of each
// operation paying its chain of dependent misses in turn (group
// prefetching, Chen et al., ICDE 2004). It makes passes over the first
// prefetchBatch keys, in each of which the loads for different keys are
// independent of one another:
//
//  1. the bucket word of every key;
//  2. the first and last byte of every chain head record, which may span
//     two cache lines (see HeaderBytes);
//  3. under EvictLRU, for a key whose record it finds, the link words of
//     its LRU neighbours, which a hit rewrites.
//
// Keys past the first prefetchBatch are not loaded. Prefetch changes no
// state a caller can observe — no counter, heat slot, LRU position,
// version, expiry or arena block — and allocates nothing. It is a pure
// hint: running it or not yields the same results. Only the store's owner
// may call it, like every other method.
func (s *Store) Prefetch(keys []Key) {
	keys = keys[:min(len(keys), prefetchBatch)]
	var heads [prefetchBatch]uint32
	var sum uint64
	for i, k := range keys {
		heads[i] = s.buckets[s.bucketIndex(k)]
	}
	for _, r := range heads[:len(keys)] {
		if r != 0 {
			h := s.rec(r)
			sum += uint64(h[0]) + uint64(h[HeaderBytes-1])
		}
	}
	if s.policy == EvictLRU {
		for _, k := range keys {
			if _, h := s.find(k); h != nil {
				if p := h.u32(recLPrev); p != 0 {
					sum += uint64(s.mem[p+recLNext])
				}
				if n := h.u32(recLNext); n != 0 {
					sum += uint64(s.mem[n+recLPrev])
				}
			}
		}
	}
	s.prefetched = sum
}

// Put stores val under k, replacing any element with the same key (no
// duplicates, §3.2), and streams the Set to the change sink before it
// returns. expireAt is an absolute deadline on the store's clock in
// nanoseconds (0 = never expires; see Deadline); a deadline already past
// still stores, and the element expires on its first lookup or sweep. ver
// 0 assigns the store's next CAS version. A nonzero ver is kept — the
// replay primitive recovery, replica apply and slot migration use, so an
// in-flight compare-and-swap stays honest — and advances the store's
// counter past it, so later writes never mint a duplicate. Put reports
// false for a key above MaxKey or when room cannot be made even by
// evicting everything. val must not alias the store's memory.
func (s *Store) Put(k Key, val []byte, expireAt int64, ver uint64) bool {
	return s.put(k, val, expireAt, ver) != nil
}

// put is Put returning the stored element, or nil.
func (s *Store) put(k Key, val []byte, expireAt int64, ver uint64) Element {
	e := s.insert(k, len(val), expireAt, ver)
	if e != nil {
		copy(e.Value(), val)
		s.publish(e)
	}
	return e
}

// Deadline converts a relative time-to-live to an absolute deadline on the
// store's clock for Put: ttl <= 0 means "never expires", and so does a ttl
// so large the deadline overflows.
func (s *Store) Deadline(ttl time.Duration) int64 {
	if ttl <= 0 {
		return 0
	}
	now := s.clock()
	if d := now + int64(ttl); d >= now {
		return d
	}
	return 0
}

// insert is Put's allocate-and-link half: it unlinks any element under k,
// allocates a size-byte element (evicting as needed), and links it with
// the given deadline and version (see Put). The value bytes are the
// caller's to fill before publish.
func (s *Store) insert(k Key, size int, expireAt int64, ver uint64) Element {
	s.m.Inserts.Inc()
	if size < 0 || k > MaxKey {
		s.m.InsertErr.Inc()
		return nil
	}
	s.heat(k, int64(size))
	hadOld := false
	if old, _ := s.find(k); old != 0 {
		s.unlink(old)
		hadOld = true
	}
	r, ok := s.allocEvicting(size)
	if !ok {
		s.m.InsertErr.Inc()
		if hadOld && s.sink != nil {
			// The old element is gone and no Set will follow to supersede
			// its logged value; stream the removal so recovery does not
			// resurrect it.
			s.sink.Delete(k)
		}
		return nil
	}
	s.m.BytesIn.Add(int64(size))
	if ver == 0 {
		ver = s.verNext
		s.verNext++
	} else if ver >= s.verNext {
		s.verNext = ver + 1
	}
	h := s.rec(r)
	*h = record{}
	h.put64(recKey, k)
	h.put64(recVersion, ver)
	h.put64(recExpire, uint64(expireAt))
	h.put32(recSize, uint32(size))
	s.linkBucket(r, k)
	s.lruPushFront(r)
	s.m.Elements.Inc()
	if expireAt != 0 {
		s.ttlElems++
	}
	return s.elem(r)
}

// publish is Put's last half: the value bytes are complete, so this is the
// write-ahead point, and the change sink (if any) streams the Set.
func (s *Store) publish(e Element) {
	if s.sink != nil {
		s.sink.Set(e.Key(), e.Value(), e.ExpireAt(), e.Version())
	}
}

// allocEvicting allocates an element block — header record plus value, one
// arena allocation, so the header charge is physical — evicting per policy
// until the allocation succeeds or nothing evictable remains, and returns
// the record's offset. Before evicting a live element it sweeps a bounded
// number of buckets for expired elements — dead weight goes first, so TTLs
// reduce eviction pressure.
func (s *Store) allocEvicting(size int) (uint32, bool) {
	swept := false
	for {
		if r, ok := s.arena.Alloc(size + HeaderBytes); ok {
			return r, ok
		}
		if !swept {
			swept = true
			if s.SweepExpired(evictSweepBuckets) > 0 {
				continue
			}
		}
		if !s.evictOne() {
			return 0, false
		}
	}
}

// evictSweepBuckets bounds the expired-element sweep a full partition
// performs before falling back to policy eviction.
const evictSweepBuckets = 64

// SweepExpired examines up to maxBuckets bucket chains (resuming where the
// previous sweep stopped) and unlinks every expired element found,
// returning how many were removed. Expiry is otherwise lazy — an expired
// element is reclaimed at its next Get — so the sweep exists to reclaim
// cold expired entries: eviction runs it before sacrificing live elements,
// and admin loops may call it periodically. maxBuckets <= 0 sweeps the
// whole table.
func (s *Store) SweepExpired(maxBuckets int) int {
	if s.ttlElems == 0 {
		return 0 // nothing in the table can expire; keep the paper's
		// no-TTL eviction path free of sweep overhead
	}
	n := int(s.mask) + 1
	if maxBuckets <= 0 || maxBuckets > n {
		maxBuckets = n
	}
	now := s.clock()
	removed := 0
	for i := 0; i < maxBuckets; i++ {
		idx := (s.sweepCursor + uint64(i)) & s.mask
		r := s.buckets[idx]
		for r != 0 {
			h := s.rec(r)
			next := h.u32(recHNext)
			if h.expired(now) {
				s.expireElement(r)
				removed++
			}
			r = next
		}
	}
	s.sweepCursor = (s.sweepCursor + uint64(maxBuckets)) & s.mask
	return removed
}

// evictOne unlinks one element according to the eviction policy and
// reports whether it did.
func (s *Store) evictOne() bool {
	var victim uint32
	switch s.policy {
	case EvictLRU:
		victim = s.lruTail
	case EvictRandom:
		victim = s.randomElement()
	}
	if victim == 0 {
		return false
	}
	s.m.Evictions.Inc()
	s.unlink(victim)
	return true
}

// randomElement picks a pseudo-random linked element by probing buckets
// from a random starting point.
func (s *Store) randomElement() uint32 {
	if s.m.Elements.Load() == 0 {
		return 0
	}
	// xorshift64
	x := s.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.rng = x
	idx := x & s.mask
	for i := uint64(0); i <= s.mask; i++ {
		if r := s.buckets[(idx+i)&s.mask]; r != 0 {
			return r
		}
	}
	return 0
}

// Delete unlinks the element with key k, reporting whether it existed. A
// key whose TTL has elapsed counts as absent (and is reclaimed here, as in
// Get).
func (s *Store) Delete(k Key) bool {
	r, h := s.find(k)
	if h == nil {
		return false
	}
	if h.expireAt() != 0 && h.expired(s.clock()) {
		s.expireElement(r)
		return false
	}
	s.m.Deletes.Inc()
	s.heat(k, 0)
	s.unlink(r)
	if s.sink != nil {
		s.sink.Delete(k)
	}
	return true
}

// unlink removes record r from the bucket chain and LRU list and returns
// its block to the arena.
func (s *Store) unlink(r uint32) {
	h := s.rec(r)
	s.unlinkBucket(r)
	s.lruRemove(r)
	s.m.Elements.Add(-1)
	if h.expireAt() != 0 {
		s.ttlElems--
	}
	s.arena.Free(r)
}

// --- bucket chain ---

// linkBucket pushes record r at the head of k's chain.
func (s *Store) linkBucket(r uint32, k Key) {
	idx := s.bucketIndex(k)
	s.rec(r).put32(recHNext, s.buckets[idx])
	s.buckets[idx] = r
}

// unlinkBucket removes record r from its chain, walking from the bucket
// head to r's predecessor.
func (s *Store) unlinkBucket(r uint32) {
	h := s.rec(r)
	next := h.u32(recHNext)
	idx := s.bucketIndex(h.key())
	if p := s.buckets[idx]; p == r {
		s.buckets[idx] = next
	} else {
		for s.rec(p).u32(recHNext) != r {
			p = s.rec(p).u32(recHNext)
		}
		s.rec(p).put32(recHNext, next)
	}
}

// --- LRU list (skipped entirely under EvictRandom, as in §6.3) ---

func (s *Store) lruPushFront(r uint32) {
	if s.policy != EvictLRU {
		return
	}
	h := s.rec(r)
	h.put32(recLPrev, 0)
	h.put32(recLNext, s.lruHead)
	if s.lruHead != 0 {
		s.rec(s.lruHead).put32(recLPrev, r)
	}
	s.lruHead = r
	if s.lruTail == 0 {
		s.lruTail = r
	}
}

func (s *Store) lruRemove(r uint32) {
	if s.policy != EvictLRU {
		return
	}
	h := s.rec(r)
	prev, next := h.u32(recLPrev), h.u32(recLNext)
	if prev != 0 {
		s.rec(prev).put32(recLNext, next)
	} else if s.lruHead == r {
		s.lruHead = next
	}
	if next != 0 {
		s.rec(next).put32(recLPrev, prev)
	} else if s.lruTail == r {
		s.lruTail = prev
	}
	h.put32(recLNext, 0)
	h.put32(recLPrev, 0)
}

func (s *Store) lruMoveFront(r uint32) {
	if s.policy != EvictLRU || s.lruHead == r {
		return
	}
	s.lruRemove(r)
	s.lruPushFront(r)
}

// LRUKeys returns the linked keys from most to least recently used; under
// EvictRandom it returns nil. For tests and introspection only.
func (s *Store) LRUKeys() []Key {
	if s.policy != EvictLRU {
		return nil
	}
	var out []Key
	for r := s.lruHead; r != 0; r = s.rec(r).u32(recLNext) {
		out = append(out, s.rec(r).key())
	}
	return out
}

// CheckInvariants validates the arena, then the records in it: every
// bucket and LRU link names an allocated block, each chain holds only keys
// that hash to its bucket, the LRU list is a consistent doubly-linked list
// over the same linked elements, counts agree with the metrics, and a
// record is allocated exactly when it is linked (anything else is a leak).
// Tests call it after mutation storms.
func (s *Store) CheckInvariants() error {
	if err := s.arena.CheckInvariants(); err != nil {
		return err
	}
	a := s.arena
	records := map[uint32]bool{} // allocated record → linked
	for b := uint32(0); int(b) < len(a.mem); b += a.size(b) {
		if a.allocated(b) {
			r := b + hdrSize
			if size := s.rec(r).u32(recSize); a.size(b) < blockFor(HeaderBytes+int(size)) {
				return fmt.Errorf("record %d: size %d overruns its %d-byte block", r, size, a.size(b))
			}
			records[r] = false
		}
	}
	linked, ttl := 0, 0
	for i, head := range s.buckets {
		for r := head; r != 0; r = s.rec(r).u32(recHNext) {
			if seen, ok := records[r]; !ok || seen {
				return fmt.Errorf("bucket %d: link %d is not an allocated, unvisited record", i, r)
			}
			records[r] = true
			h := s.rec(r)
			if h.expireAt() != 0 {
				ttl++
			}
			if s.bucketIndex(h.key()) != uint64(i) {
				return fmt.Errorf("bucket %d: key %d hashed elsewhere", i, h.key())
			}
			linked++
		}
	}
	if linked != int(s.m.Elements.Load()) {
		return fmt.Errorf("linked = %d, metric Elements = %d", linked, s.m.Elements.Load())
	}
	if ttl != s.ttlElems {
		return fmt.Errorf("linked TTL elements = %d, ttlElems = %d", ttl, s.ttlElems)
	}
	for r, isLinked := range records {
		if !isLinked {
			return fmt.Errorf("record %d (key %d) is allocated but not linked", r, s.rec(r).key())
		}
	}
	if s.policy == EvictLRU {
		lru := 0
		var prev uint32
		for r := s.lruHead; r != 0; r = s.rec(r).u32(recLNext) {
			if !records[r] {
				return fmt.Errorf("LRU: link %d is not a linked record", r)
			}
			if s.rec(r).u32(recLPrev) != prev {
				return fmt.Errorf("LRU: broken lPrev at key %d", s.rec(r).key())
			}
			if lru++; lru > linked {
				return fmt.Errorf("LRU holds more than the %d linked elements (cycle?)", linked)
			}
			prev = r
		}
		if prev != s.lruTail {
			return fmt.Errorf("LRU tail mismatch")
		}
		if lru != linked {
			return fmt.Errorf("LRU holds %d, buckets hold %d", lru, linked)
		}
	}
	return nil
}
