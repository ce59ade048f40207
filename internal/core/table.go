package core

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cphash/internal/obs"
	"cphash/internal/partition"
	"cphash/internal/ring"
)

// Config parameterizes a CPHASH table.
type Config struct {
	// Partitions is the number of partitions and therefore the number of
	// server goroutines (the paper uses 80, one per core; a sensible
	// default on the host is runtime.GOMAXPROCS(0)). Rounded up to a power
	// of two so partition selection is a mask of the key hash.
	Partitions int
	// CapacityBytes is the total byte budget across all partitions
	// (values + one 64-byte header charge per element). It is divided
	// evenly; the paper keeps all partitions the same size (§3.1).
	CapacityBytes int
	// MaxClients is the number of client handles that may be created with
	// Table.Client; the rings for every (client, server) pair are
	// pre-allocated, exactly as in the paper.
	MaxClients int
	// RingCapacity is the per-direction ring capacity in messages for each
	// (client, server) pair. It bounds a client's outstanding operations
	// per server. 0 means ring.DefaultCapacity.
	RingCapacity int
	// Policy selects LRU (default) or random eviction.
	Policy partition.EvictionPolicy
	// BucketsPerPartition overrides the derived bucket count (0 = derive,
	// targeting ~1 element per bucket for 8-byte values as in §6).
	BucketsPerPartition int
	// LockOSThread dedicates an OS thread to each server goroutine. This is
	// the closest Go gets to the paper's core pinning; disable it in tests
	// or on single-CPU hosts where extra OS threads only add scheduling
	// pressure.
	LockOSThread bool
	// Seed makes eviction and bucket hashing deterministic for tests.
	Seed uint64
	// Clock supplies "now" in nanoseconds for TTL expiry (nil = wall
	// clock). Tests inject fake clocks to make expiry deterministic.
	Clock func() int64
	// Sink, when non-nil, supplies each partition's durability change sink
	// (internal/persist hands out one appender per partition). The sink is
	// invoked only by the partition's owning server goroutine, so the
	// single-producer contract holds even across §8.1 ownership handoffs —
	// a partition moves between goroutines only at sweep boundaries, never
	// mid-operation.
	Sink func(partition int) partition.ChangeSink
}

func (c *Config) setDefaults() error {
	if c.Partitions <= 0 {
		c.Partitions = runtime.GOMAXPROCS(0)
	}
	c.Partitions = ceilPow2(c.Partitions)
	if c.MaxClients <= 0 {
		c.MaxClients = 1
	}
	if c.RingCapacity == 0 {
		c.RingCapacity = ring.DefaultCapacity
	}
	if c.RingCapacity < requestLineMsgs || c.RingCapacity&(c.RingCapacity-1) != 0 {
		return fmt.Errorf("core: RingCapacity %d must be a power of two ≥ %d", c.RingCapacity, requestLineMsgs)
	}
	per := c.CapacityBytes / c.Partitions
	if per < partition.HeaderBytes*2 {
		return fmt.Errorf("core: CapacityBytes %d gives only %d bytes per partition", c.CapacityBytes, per)
	}
	return nil
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Stats aggregates per-partition counters plus message-passing counters.
type Stats struct {
	partition.Stats
	// Messages is the number of requests processed by all servers.
	Messages int64
	// IdleSweeps counts server polling sweeps that found no work — the
	// paper reports its servers spend 41% of their time polling idle
	// buffers at peak load.
	IdleSweeps int64
}

// Table is a CPHASH hash table: Config.Partitions partition stores, each
// owned by a dedicated server goroutine, plus the ring fabric connecting
// them to up to Config.MaxClients client handles.
//
// All operations go through a Client; see Table.Client.
type Table struct {
	cfg   Config
	parts []*partition.Store

	// rings[c][s] is the pair of rings between client c and server s.
	toServer   [][]*ring.SPSC[request]
	fromServer [][]*ring.SPSC[reply]

	// clientActive[c] is set once client c has been handed out; servers
	// skip polling inactive clients' rings entirely (cheaper than the
	// paper's always-poll because MaxClients may exceed live clients).
	clientActive []atomic.Bool

	stats []serverStats

	// servers[id] and clients[c] are what server goroutine id and client c
	// park on. The paper's servers poll forever because each owns a core;
	// here they share cores with the clients and with each other, and a Go
	// yield takes the scheduler's global run-queue lock, so polling in a
	// loop of yields is dearer than blocking. A server parks after
	// parkAfterSweeps empty sweeps and clients kick it after publishing
	// requests; a client parks after clientSpins empty polls and servers
	// kick it after consuming its requests or flushing its replies.
	servers []parker
	clients []parker

	// Dynamic server threads (the paper's §8.1 future work): partitions
	// may be consolidated onto fewer server goroutines when load is low.
	// owner[p] is the server goroutine currently processing partition p;
	// target[p] is where the controller wants it. Ownership moves only at
	// the old owner's sweep boundary (it stores owner[p] = target[p]), so
	// exactly one goroutine ever touches a partition's state and rings.
	owner  []atomic.Int32
	target []atomic.Int32

	// scans[p] is partition p's one-deep scan mailbox: bulk iteration
	// (slot migration) posts bounded jobs here and the owning server
	// executes them at sweep boundaries, preserving single-owner access.
	scans []scanBox

	stop    atomic.Bool
	wg      sync.WaitGroup
	clientN atomic.Int32
	closed  atomic.Bool
}

// parkAfterSweeps is how many consecutive empty polling sweeps a server
// makes before parking, and clientSpins how many empty polls a client wait
// loop makes. A reply that is a few hundred nanoseconds out is cheaper to
// poll for than to park for; anything longer is cheaper to sleep through.
// Variables only so tests can make every wait park.
var (
	parkAfterSweeps = 2
	clientSpins     = 64
)

// statsFlushMsgs bounds how many processed messages a busy server holds
// back from its serverStats, so Stats moves under sustained load too.
const statsFlushMsgs = 4096

// serverStats are one server goroutine's counters, on a cache line of
// their own: the server adds to them when it parks, when it exits and
// every statsFlushMsgs messages, so a flush does not evict the table
// fields every sweep reads.
type serverStats struct {
	messages, idleSweeps atomic.Int64
	_                    [48]byte
}

// parker is the one way anything in this package waits. The waiter sets
// parked, re-checks its wait condition and blocks on wake only if the
// condition still does not hold; the other side changes the condition
// first (publishes a ring index, stores a flag) and kicks after. Both are
// sequentially consistent atomics, so either the kicker sees the flag or
// the waiter's re-check sees the change. A token left by a kick that was
// not needed costs one spurious wake-up, which every wait loop tolerates.
// Each parker fills a cache line of its own: kickers load the flag of a
// running goroutine once per batch.
type parker struct {
	parked atomic.Bool
	wake   chan struct{}
	_      [64 - 16]byte
}

func newParkers(n int) []parker {
	ps := make([]parker, n)
	for i := range ps {
		ps[i].wake = make(chan struct{}, 1)
	}
	return ps
}

// park blocks until a kick, unless ready reports the wait already over
// once the flag is set.
func (p *parker) park(ready func() bool) {
	p.parked.Store(true)
	if !ready() {
		<-p.wake
	}
	p.parked.Store(false)
}

// kick wakes the goroutine if it is parked; otherwise it costs one load.
func (p *parker) kick() {
	if p.parked.Load() {
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
}

// adaptiveSpinBudget bounds how many index re-polls a server spends
// waiting for a request ring to fill to the batch low-watermark. Each
// re-poll is one cache-hot atomic load, so the worst-case added latency
// is tens of nanoseconds — noise against a TCP round trip, and absent
// entirely for pipelined clients that publish whole lines.
const adaptiveSpinBudget = 32

// New builds the table and starts its server goroutines.
func New(cfg Config) (*Table, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	t := &Table{
		cfg:          cfg,
		parts:        make([]*partition.Store, cfg.Partitions),
		toServer:     make([][]*ring.SPSC[request], cfg.MaxClients),
		fromServer:   make([][]*ring.SPSC[reply], cfg.MaxClients),
		clientActive: make([]atomic.Bool, cfg.MaxClients),
	}
	per := cfg.CapacityBytes / cfg.Partitions
	for p := range t.parts {
		var sink partition.ChangeSink
		if cfg.Sink != nil {
			sink = cfg.Sink(p)
		}
		s, err := partition.NewStore(partition.Config{
			CapacityBytes: per,
			Buckets:       cfg.BucketsPerPartition,
			Policy:        cfg.Policy,
			Seed:          cfg.Seed + uint64(p)*0x9e3779b97f4a7c15 + 1,
			Clock:         cfg.Clock,
			Sink:          sink,
			// CPHASH tables have few partitions (one per server
			// goroutine), so per-slot heat is cheap here — and it is the
			// signal load-aware placement needs. Each partition records
			// its own heat uncontended; scrapes aggregate lazily.
			Metrics: &obs.PartitionMetrics{Heat: &obs.SlotHeat{}},
		})
		if err != nil {
			return nil, fmt.Errorf("core: partition %d: %w", p, err)
		}
		t.parts[p] = s
	}
	t.stats = make([]serverStats, cfg.Partitions)
	t.servers = newParkers(cfg.Partitions)
	t.clients = newParkers(cfg.MaxClients)
	t.owner = make([]atomic.Int32, cfg.Partitions)
	t.target = make([]atomic.Int32, cfg.Partitions)
	t.scans = make([]scanBox, cfg.Partitions)
	for p := range t.owner {
		t.scans[p].waiter.wake = make(chan struct{}, 1)
		t.owner[p].Store(int32(p))
		t.target[p].Store(int32(p))
	}
	for c := 0; c < cfg.MaxClients; c++ {
		t.toServer[c] = make([]*ring.SPSC[request], cfg.Partitions)
		t.fromServer[c] = make([]*ring.SPSC[reply], cfg.Partitions)
		for s := 0; s < cfg.Partitions; s++ {
			var err error
			if t.toServer[c][s], err = ring.NewSPSC[request](cfg.RingCapacity, requestLineMsgs); err != nil {
				return nil, err
			}
			// The smallest ring setDefaults admits holds less than a line of replies.
			if t.fromServer[c][s], err = ring.NewSPSC[reply](cfg.RingCapacity, min(replyLineMsgs, cfg.RingCapacity)); err != nil {
				return nil, err
			}
		}
	}
	for p := 0; p < cfg.Partitions; p++ {
		t.wg.Add(1)
		go t.serverLoop(p)
	}
	return t, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Table {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// NumPartitions returns the number of partitions (= server goroutines).
func (t *Table) NumPartitions() int { return t.cfg.Partitions }

// CapacityBytes returns the total configured capacity.
func (t *Table) CapacityBytes() int {
	return t.parts[0].CapacityBytes() * t.cfg.Partitions
}

// PartitionOf returns the partition index serving key k. A key's partition
// is a function of its hash only, as in §3: "a simple hash function to
// assign each possible key to a partition".
func (t *Table) PartitionOf(k Key) int {
	// Use the high bits of the mix so that partition selection and
	// within-partition bucket selection (low bits) stay independent.
	return int(partition.Mix64(k) >> 32 & uint64(t.cfg.Partitions-1))
}

// Client returns the client handle with index id (0 ≤ id < MaxClients).
// Each handle is single-goroutine (the paper's "client thread"); distinct
// handles may be used concurrently. Calling Client twice with the same id
// returns handles sharing rings and must not be done concurrently.
func (t *Table) Client(id int) (*Client, error) {
	if id < 0 || id >= t.cfg.MaxClients {
		return nil, fmt.Errorf("core: client id %d out of range [0,%d)", id, t.cfg.MaxClients)
	}
	if t.closed.Load() {
		return nil, fmt.Errorf("core: table closed")
	}
	t.clientActive[id].Store(true)
	c := &Client{
		t:        t,
		id:       id,
		to:       t.toServer[id],
		from:     t.fromServer[id],
		park:     &t.clients[id],
		pending:  make([]pendingFIFO, t.cfg.Partitions),
		replyBuf: make([]reply, replyLineMsgs*4),
	}
	return c, nil
}

// MustClient is Client that panics on error.
func (t *Table) MustClient(id int) *Client {
	c, err := t.Client(id)
	if err != nil {
		panic(err)
	}
	return c
}

// Close stops the server goroutines and waits for them. All clients must
// have drained their outstanding operations first (Client.Wait); operations
// issued after Close are lost. Close is idempotent.
func (t *Table) Close() {
	if !t.closed.CompareAndSwap(false, true) {
		return
	}
	t.stop.Store(true)
	// Servers re-check stop and scan waiters closed. A parked client
	// needs no kick: the servers' last sweep replies to everything
	// published before stop, and replying kicks it.
	for i := range t.servers {
		t.servers[i].kick()
	}
	for p := range t.scans {
		t.scans[p].waiter.kick()
	}
	t.wg.Wait()
}

// kick wakes the server goroutine currently owning partition p. Clients
// call it after publishing requests.
func (t *Table) kick(p int) {
	t.servers[t.owner[p].Load()].kick()
}

// SetActiveServers consolidates all partitions onto the first n server
// goroutines — the paper's §8.1 dynamic-adjustment extension: with a light
// workload, fewer cores run servers and the rest are free for application
// work; with a heavy workload, raise n again (up to NumPartitions).
// Ownership moves at sweep boundaries, so operations in flight are safe.
// The call returns once the new assignment is published; stragglers finish
// handing off asynchronously.
func (t *Table) SetActiveServers(n int) error {
	if n < 1 || n > t.cfg.Partitions {
		return fmt.Errorf("core: SetActiveServers(%d) outside [1, %d]", n, t.cfg.Partitions)
	}
	for p := 0; p < t.cfg.Partitions; p++ {
		t.target[p].Store(int32(p % n))
	}
	// Old owners must run to hand partitions off (anyWork sees the new
	// target); each kicks the new owner as it does.
	for id := range t.servers {
		t.servers[id].kick()
	}
	return nil
}

// ActiveServers returns how many server goroutines currently own at least
// one partition (it can transiently exceed the SetActiveServers target
// while handoffs drain).
func (t *Table) ActiveServers() int {
	seen := map[int32]bool{}
	for p := 0; p < t.cfg.Partitions; p++ {
		seen[t.owner[p].Load()] = true
	}
	return len(seen)
}

// Stats aggregates statistics across partitions.
func (t *Table) Stats() Stats {
	var out Stats
	for _, p := range t.parts {
		out.Add(p.Stats())
	}
	for i := range t.stats {
		out.Messages += t.stats[i].messages.Load()
		out.IdleSweeps += t.stats[i].idleSweeps.Load()
	}
	return out
}

// Heat aggregates per-slot heat across all partitions — the lazy,
// scrape-time half of the heat design: owners record uncontended, the
// scraper merges.
func (t *Table) Heat() obs.HeatSnapshot {
	var out obs.HeatSnapshot
	for _, p := range t.parts {
		if h := p.Metrics().Heat; h != nil {
			out.Merge(h.Snapshot())
		}
	}
	return out
}

// Collect emits the table's aggregated counters and per-slot heat under
// the given label set (typically {instance="addr"}).
func (t *Table) Collect(e *obs.Expo, labels string) {
	st := t.Stats()
	e.Counter("cphash_table_lookups_total", "lookup requests processed", labels, st.Lookups)
	e.Counter("cphash_table_hits_total", "lookups that found a live entry", labels, st.Hits)
	e.Counter("cphash_table_misses_total", "lookups that found nothing", labels, st.Lookups-st.Hits)
	e.Counter("cphash_table_inserts_total", "insert requests processed", labels, st.Inserts)
	e.Counter("cphash_table_insert_errors_total", "inserts rejected for lack of space", labels, st.InsertErr)
	e.Counter("cphash_table_deletes_total", "explicit deletes", labels, st.Deletes)
	e.Counter("cphash_table_evictions_total", "entries evicted for capacity", labels, st.Evictions)
	e.Counter("cphash_table_expired_total", "entries collected after TTL expiry", labels, st.Expired)
	e.Counter("cphash_table_bytes_in_total", "value bytes accepted by inserts", labels, st.BytesIn)
	e.Counter("cphash_table_bytes_out_total", "value bytes returned by hits", labels, st.BytesOut)
	e.Gauge("cphash_table_elements", "entries currently stored", labels, float64(st.Elements))
	e.Counter("cphash_table_messages_total", "ring messages processed by server goroutines", labels, st.Messages)
	e.Counter("cphash_table_idle_sweeps_total", "server polling sweeps that found no work", labels, st.IdleSweeps)
	heat := t.Heat()
	for slot := 0; slot < obs.Slots; slot++ {
		if heat.Ops[slot] == 0 {
			continue
		}
		sl := obs.WithLabel(labels, "slot", strconv.Itoa(slot))
		e.Counter("cphash_slot_ops_total", "operations touching each continuum slot", sl, heat.Ops[slot])
		e.Counter("cphash_slot_bytes_total", "value bytes moved per continuum slot", sl, heat.Bytes[slot])
	}
}

// PartitionStats returns the counters of one partition (for tests and the
// load-distribution experiment).
func (t *Table) PartitionStats(p int) partition.Stats { return t.parts[p].Stats() }

// CheckInvariants validates every partition; the table must be quiescent
// (no in-flight operations). Tests call this after workloads.
func (t *Table) CheckInvariants() error {
	for i, p := range t.parts {
		if err := p.CheckInvariants(); err != nil {
			return fmt.Errorf("partition %d: %w", i, err)
		}
	}
	return nil
}

// serverLoop is server goroutine id — the paper's §3.2 server thread,
// extended with §8.1's dynamic partition ownership. It continuously sweeps
// the request rings of every (active client, owned partition) pair,
// executes each operation on the local partition, and pushes replies. A
// partition whose target moved is handed off at the sweep boundary, so a
// partition's state and rings only ever have one processing goroutine.
// A batch of more than one request is prefetched before it executes: the
// server is the partition's only reader and writer, so it may load the
// whole batch's buckets and records at once, and their cache misses then
// overlap instead of forming one dependent chain per request. §3.4's
// batching pays the ring's misses once per batch; this does the same for
// the table's. After each batch it kicks the batch's client, which may
// have parked waiting for the replies or for ring space. With no work for
// parkAfterSweeps consecutive sweeps it parks until a client (or the
// controller, or Close) kicks it.
func (t *Table) serverLoop(id int) {
	defer t.wg.Done()
	if t.cfg.LockOSThread {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	reqs := make([]request, requestLineMsgs*8)
	keys := make([]Key, len(reqs)) // a batch's keys, for Store.Prefetch
	idle := 0
	var processed int64
	var idleSweeps int64
	flushStats := func() {
		t.stats[id].messages.Add(processed)
		t.stats[id].idleSweeps.Add(idleSweeps)
		processed, idleSweeps = 0, 0
	}
	defer flushStats()
	me := int32(id)
	for {
		work := false
		for p := 0; p < t.cfg.Partitions; p++ {
			if t.owner[p].Load() != me {
				continue
			}
			if tgt := t.target[p].Load(); tgt != me {
				// Hand the partition off; the new owner takes over at its
				// next sweep.
				t.owner[p].Store(tgt)
				t.servers[tgt].kick()
				continue
			}
			store := t.parts[p]
			for c := 0; c < t.cfg.MaxClients; c++ {
				if !t.clientActive[c].Load() {
					continue
				}
				in := t.toServer[c][p]
				out := t.fromServer[c][p]
				n := in.ConsumeBatchAdaptive(reqs, requestLineMsgs, adaptiveSpinBudget)
				if n == 0 {
					continue
				}
				work = true
				if processed += int64(n); processed >= statsFlushMsgs {
					flushStats()
				}
				if n > 1 {
					for i, r := range reqs[:n] {
						keys[i] = r.key()
					}
					store.Prefetch(keys[:n])
				}
				for i := 0; i < n; i++ {
					if rep := execute(store, reqs[i]); !out.Produce(rep) {
						// The reply ring is full mid-batch. Its client may
						// have parked before any of it was published, so
						// kick it before spinning on its drain.
						out.Flush()
						t.clients[c].kick()
						out.ProduceSpin(rep)
					}
				}
				out.Flush()
				t.clients[c].kick()
			}
			// Bulk iteration rides the sweep boundary, like handoffs: the
			// mailbox is drained only by the owner, so a plain Load guards
			// the (rare) Swap. Checking it AFTER the ring drain gives scans
			// a useful ordering guarantee: any Insert published to this
			// partition's rings before the scan job was posted is applied
			// before the scan runs.
			if t.scans[p].job.Load() != nil {
				if j := t.scans[p].job.Swap(nil); j != nil {
					t.scans[p].run(store, j)
					work = true
				}
			}
		}
		if work {
			idle = 0
			continue
		}
		idleSweeps++
		if t.stop.Load() {
			return
		}
		if idle++; idle < parkAfterSweeps {
			continue
		}
		idle = 0
		flushStats()
		// After a wake-up on stop the loop sweeps once more, so requests
		// published just before stop still complete, then exits above.
		t.servers[id].park(func() bool { return t.stop.Load() || t.anyWork(id) })
	}
}

// anyWork reports whether server goroutine id has anything to do: a
// published request on an owned partition, or a pending handoff in either
// direction.
func (t *Table) anyWork(id int) bool {
	me := int32(id)
	for p := 0; p < t.cfg.Partitions; p++ {
		own := t.owner[p].Load()
		tgt := t.target[p].Load()
		if own == me && tgt != me {
			return true // must hand off
		}
		if own != me {
			continue
		}
		if t.scans[p].job.Load() != nil {
			return true // a posted scan job awaits this owner
		}
		for c := 0; c < t.cfg.MaxClients; c++ {
			if t.clientActive[c].Load() && t.toServer[c][p].Len() > 0 {
				return true
			}
		}
	}
	return false
}

// execute runs one request against the local partition and returns its
// reply. Every request has one, and the partition shares no memory with the
// client: Get copies a hit into the client's Op, Put copies an insert out of
// it and streams it to the change sink, both before the reply.
func execute(store *partition.Store, r request) reply {
	switch r.op() {
	case opLookup:
		o := r.o
		var hit bool
		if o.val, o.ver, hit = store.Get(r.key(), o.val[:0]); !hit {
			return reply{status: statusMiss}
		}
		return reply{status: statusHit}
	case opInsert:
		// A nonzero version (recovery, replica replay, slot migration) is
		// preserved instead of assigning a fresh one.
		ttl := time.Duration(r.insertTTL()) * time.Millisecond
		if !store.Put(r.key(), r.o.insVal, store.Deadline(ttl), r.o.rmw.Ver) {
			return reply{status: statusMiss} // space cannot be made
		}
		return reply{status: statusHit}
	case opDelete:
		if store.Delete(r.key()) {
			return reply{status: statusDeleted}
		}
		return reply{status: statusMiss}
	default: // opRMW
		// The whole read-modify-write runs here, on the partition's single
		// owner — no other goroutine can interleave, so no locks. Results
		// land in the client-owned descriptor before the reply is produced;
		// the reply ring's release/acquire publishes them to the client.
		store.RMW(r.key(), &r.o.rmw)
		return reply{status: statusMiss}
	}
}
