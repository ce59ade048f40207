// Package persist is the durability subsystem: a per-partition,
// asynchronous write-ahead pipeline plus compact snapshots and crash
// recovery for the CPHash tables.
//
// CPHash partitions the table across cores precisely so that each
// partition is owned by one goroutine (CPHASH's server goroutine, or
// LOCKHASH's lock holder). That ownership makes durability logging
// contention-free: each partition gets an Appender — a pooled-buffer
// staging area feeding an SPSC change ring — whose single producer is the
// partition owner. Persister goroutines (one per WAL stream; partitions
// are striped across streams) drain the rings and write length-prefixed,
// CRC-framed records into segmented WAL files. A snapshotter periodically
// walks the table through the safe-snapshot scan iteration and writes a
// compact immutable snapshot, after which the WAL segments it covers are
// deleted.
//
// # Lifecycle
//
//	p, _ := persist.Open(cfg)        // scan the data dir, appenders inert
//	table := core.New(core.Config{   // sinks attached at construction
//	    Sink: func(i int) partition.ChangeSink { return p.Appender(i) },
//	    ...})
//	p.SetSource(adapter(table))      // snapshot scan source
//	persist.RestoreCore(p, table, 0) // snapshot + WAL tail -> table
//	p.Start()                        // roll fresh segments, go live
//	...
//	p.Close()                        // drain, final fsync, stop
//
// Records appended before Start (the recovery replay writing back into
// the table) or after Close are dropped — the on-disk state that produced
// them already holds them.
//
// # Sync policies
//
//   - SyncNone: never fsync; the OS flushes at its leisure. Fastest, a
//     crash loses whatever the kernel had not written back (a graceful
//     Close still syncs everything).
//   - SyncInterval: fsync at a fixed cadence (default 100ms). A crash
//     loses at most the last interval; the WAL's clean-prefix framing
//     keeps everything before the torn tail intact.
//   - SyncAlways: fsync after every drained batch and publish the durable
//     watermark — group commit. Combined with the server's response
//     barrier, an acknowledged write is on disk before the client sees
//     the ack.
//
// # What is logged
//
// Sets (at value publication) and explicit deletes. Evictions and TTL
// expiries are not: recovery filters elapsed deadlines itself, and a
// resurrected evicted entry holds valid data that simply re-evicts —
// cache semantics buy the hot path a sink-free eviction loop.
package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cphash/internal/obs"
	"cphash/internal/partition"
	"cphash/internal/ring"
)

// SyncPolicy selects when the WAL is fsynced.
type SyncPolicy uint8

const (
	// SyncInterval fsyncs on a fixed cadence (Config.SyncInterval).
	SyncInterval SyncPolicy = iota
	// SyncNone never fsyncs during operation (Close still does).
	SyncNone
	// SyncAlways fsyncs every drained batch (group commit) and lets
	// Barrier callers wait for the durable watermark.
	SyncAlways
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncNone:
		return "none"
	case SyncInterval:
		return "interval"
	case SyncAlways:
		return "always"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", uint8(p))
	}
}

// ParseSyncPolicy parses the -sync flag forms: none | interval | always.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "none":
		return SyncNone, nil
	case "interval":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	default:
		return SyncInterval, fmt.Errorf("persist: unknown sync policy %q (want none|interval|always)", s)
	}
}

// Source is the snapshot scan: a cursor-resumable iteration over the
// table's live entries (core.Table.ScanEntries / lockhash.Table
// adapters). It is called repeatedly until done. It appends entries to
// dst and their values to the slab vals and returns both extended; the
// snapshotter passes the previous call's results back truncated, so the
// entries and values it gets are valid until the next call.
type Source func(cursor uint64, maxEntries int, dst []partition.ScanEntry, vals []byte) (entries []partition.ScanEntry, outVals []byte, next uint64, done bool, err error)

// Config parameterizes a Pipeline.
type Config struct {
	// Dir is the data directory (created if missing). One pipeline per
	// directory.
	Dir string
	// Policy selects the sync policy (default SyncInterval).
	Policy SyncPolicy
	// SyncInterval is the fsync cadence under SyncInterval (default
	// 100ms).
	SyncInterval time.Duration
	// MaxSegment bounds a WAL segment's size before rolling (default
	// 64 MiB).
	MaxSegment int
	// SnapshotInterval is the automatic snapshot cadence; 0 disables
	// automatic snapshots (manual Snapshot still works).
	SnapshotInterval time.Duration
	// Streams is the number of WAL streams (= persister goroutines);
	// partitions are striped across them. Default 2.
	Streams int
	// RingDepth is the per-partition change-ring depth in records
	// (power of two, default 256). It bounds the records a partition
	// may have in flight to its persister; a producer that outruns the
	// persister by more briefly spins, which is the backpressure
	// durability needs. Memory is ~48·RingDepth bytes per partition of
	// ring alone (two rings of slice headers), so very-high-partition
	// tables (LOCKHASH's 4,096) may want a smaller depth.
	RingDepth int
	// Clock supplies "now" in nanoseconds (nil = wall clock). It must be
	// the same clock the table uses, so persisted absolute deadlines and
	// live TTLs agree.
	Clock func() int64
	// Source is the snapshot scan; it may also be set later with
	// SetSource (the table is usually built after the pipeline, since
	// its partitions need the pipeline's appenders).
	Source Source
}

func (c *Config) setDefaults() error {
	if c.Dir == "" {
		return fmt.Errorf("persist: Config.Dir is required")
	}
	if c.SyncInterval <= 0 {
		c.SyncInterval = 100 * time.Millisecond
	}
	if c.MaxSegment <= 0 {
		c.MaxSegment = 64 << 20
	}
	if c.MaxSegment < segHeaderLen+frameHeaderLen {
		return fmt.Errorf("persist: MaxSegment %d too small", c.MaxSegment)
	}
	if c.Streams <= 0 {
		c.Streams = 2
	}
	if c.RingDepth <= 0 {
		c.RingDepth = 256
	}
	if c.RingDepth&(c.RingDepth-1) != 0 {
		return fmt.Errorf("persist: RingDepth %d must be a power of two", c.RingDepth)
	}
	if c.Clock == nil {
		c.Clock = func() int64 { return time.Now().UnixNano() }
	}
	return nil
}

// Stats is a snapshot of pipeline counters.
type Stats struct {
	Policy string `json:"policy"`
	// Records and RecordBytes count WAL records written (payload bytes).
	Records     int64 `json:"records"`
	RecordBytes int64 `json:"recordBytes"`
	// Fsyncs counts WAL fsync calls; Rolls counts segment rolls.
	Fsyncs int64 `json:"fsyncs"`
	Rolls  int64 `json:"rolls"`
	// Dropped counts records discarded because the pipeline was not
	// accepting (before Start / after Close). Steady state: 0.
	Dropped int64 `json:"dropped"`
	// Snapshots counts completed snapshots; the Last* fields describe
	// the most recent one.
	Snapshots        int64 `json:"snapshots"`
	SnapshotErrors   int64 `json:"snapshotErrors"`
	LastSnapEntries  int64 `json:"lastSnapshotEntries"`
	LastSnapBytes    int64 `json:"lastSnapshotBytes"`
	LastSnapUnixNano int64 `json:"lastSnapshotUnixNano"`
	// Recovery counters from the last Recover on this pipeline.
	Recovered RecoverStats `json:"recovered"`
}

// StreamStatus describes one WAL stream's current segment.
type StreamStatus struct {
	Stream  int    `json:"stream"`
	Segment string `json:"segment"` // path of the current segment
	Seq     uint64 `json:"seq"`
	// WrittenBytes counts bytes handed to the segment writer;
	// DurableBytes counts bytes known fsynced. DurableBytes ≤ file size
	// ≤ WrittenBytes (the gap is the writer's user-space buffer).
	WrittenBytes int64 `json:"writtenBytes"`
	DurableBytes int64 `json:"durableBytes"`
}

// Pipeline is the durability pipeline for one table.
type Pipeline struct {
	cfg     Config
	streams []*stream

	mu             sync.Mutex
	cond           *sync.Cond // broadcast when durable watermarks advance
	appenderByPart map[int]*Appender
	appList        atomic.Pointer[[]*Appender] // COW snapshot for lock-free readers
	source         atomic.Pointer[Source]
	tailSink       atomic.Pointer[TailSink] // replication fanout (tail.go)

	lineage uint64        // this directory's WAL history id (lineage.go)
	nextSeq atomic.Uint64 // global segment sequence allocator
	nextGen atomic.Uint64 // snapshot generation allocator

	accepting atomic.Bool // appenders stage records only while true
	started   atomic.Bool
	closed    atomic.Bool
	stopping  atomic.Bool
	killed    chan struct{} // test hook: abrupt persister death
	broken    chan struct{} // closed when a persister dies on an I/O error
	breakOnce sync.Once
	wg        sync.WaitGroup

	snapReq  chan chan error
	snapStop chan struct{}
	snapWG   sync.WaitGroup

	// counters
	records     atomic.Int64
	recordBytes atomic.Int64
	fsyncs      atomic.Int64
	rolls       atomic.Int64
	dropped     atomic.Int64
	snapshots   atomic.Int64
	snapErrors  atomic.Int64
	snapEntries atomic.Int64
	snapBytes   atomic.Int64
	snapWhen    atomic.Int64
	recovered   RecoverStats

	// latency histograms: fsync duration (persister-side) and durability
	// barrier wait (caller-side — under SyncAlways this is the group-commit
	// stall every mutating batch pays).
	fsyncHist   obs.Hist
	barrierHist obs.Hist
}

// Open validates the configuration, creates the data directory, and
// scans it for existing WAL segments and snapshots. The returned
// pipeline is inert — appenders drop records — until Start; call Recover
// first to replay the on-disk state.
func Open(cfg Config) (*Pipeline, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	p := &Pipeline{
		cfg:            cfg,
		appenderByPart: map[int]*Appender{},
		killed:         make(chan struct{}),
		broken:         make(chan struct{}),
		snapReq:        make(chan chan error),
		snapStop:       make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	if cfg.Source != nil {
		src := cfg.Source
		p.source.Store(&src)
	}
	// A crash mid-snapshot leaves an s<gen>.tmp behind; it can never
	// become loadable (only the rename commits), so sweep orphans here.
	if tmps, err := filepath.Glob(filepath.Join(cfg.Dir, "s*.tmp")); err == nil {
		for _, t := range tmps {
			os.Remove(t)
		}
	}
	segs, snaps, err := scanDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if p.lineage, err = loadLineage(cfg.Dir); err != nil {
		return nil, err
	}
	maxSeq := uint64(0)
	for _, s := range segs {
		if s.seq > maxSeq {
			maxSeq = s.seq
		}
	}
	p.nextSeq.Store(maxSeq + 1)
	maxGen := uint64(0)
	for _, s := range snaps {
		if s.gen > maxGen {
			maxGen = s.gen
		}
	}
	p.nextGen.Store(maxGen + 1)
	for i := 0; i < cfg.Streams; i++ {
		p.streams = append(p.streams, newStream(p, i))
	}
	return p, nil
}

// Dir returns the pipeline's data directory.
func (p *Pipeline) Dir() string { return p.cfg.Dir }

// Policy returns the configured sync policy.
func (p *Pipeline) Policy() SyncPolicy { return p.cfg.Policy }

// SetSource installs the snapshot scan source (usually right after the
// table — which needed the pipeline's appenders — has been built).
func (p *Pipeline) SetSource(src Source) {
	if src == nil {
		return
	}
	p.source.Store(&src)
}

// Appender returns (creating on first use) the change appender for
// partition part. It is the partition.ChangeSink the table's partition
// should be configured with; all of its methods must be called by the
// partition's single owner.
func (p *Pipeline) Appender(part int) *Appender {
	p.mu.Lock()
	defer p.mu.Unlock()
	if a, ok := p.appenderByPart[part]; ok {
		return a
	}
	s := p.streams[part%len(p.streams)]
	a := &Appender{
		p:      p,
		part:   part,
		stream: s,
		pub:    ring.MustSPSC[[]byte](p.cfg.RingDepth, 1),
		free:   ring.MustSPSC[[]byte](p.cfg.RingDepth, 1),
	}
	p.appenderByPart[part] = a
	old := p.appenders()
	next := make([]*Appender, len(old)+1)
	copy(next, old)
	next[len(old)] = a
	p.appList.Store(&next)
	s.addAppender(a)
	return a
}

// appenders returns the copy-on-write appender snapshot — lock-free and
// allocation-free, so per-batch Barrier calls stay off the mutex.
func (p *Pipeline) appenders() []*Appender {
	if l := p.appList.Load(); l != nil {
		return *l
	}
	return nil
}

// Start rolls every stream onto a fresh segment and starts the persister
// and snapshotter goroutines; appenders accept records from here on.
// Starting on a fresh segment (never appending to an existing one) is
// what lets replay treat a mid-segment torn record as end-of-segment:
// nothing is ever written after a tear.
func (p *Pipeline) Start() error {
	if p.closed.Load() {
		return fmt.Errorf("persist: pipeline closed")
	}
	if !p.started.CompareAndSwap(false, true) {
		return fmt.Errorf("persist: already started")
	}
	for _, s := range p.streams {
		if err := s.openSegment(); err != nil {
			return err
		}
	}
	for _, s := range p.streams {
		p.wg.Add(1)
		go s.run()
	}
	p.snapWG.Add(1)
	go p.snapshotLoop()
	p.accepting.Store(true)
	return nil
}

// Barrier blocks until every record published before the call is
// durable (fsynced), forcing a sync under SyncNone/SyncInterval. Under
// SyncAlways this is the group-commit wait the server performs before
// acknowledging a batch. Returns immediately if the pipeline is not
// running.
func (p *Pipeline) Barrier() {
	if !p.started.Load() {
		return
	}
	start := time.Now()
	defer func() { p.barrierHist.Record(time.Since(start).Nanoseconds()) }()
	for _, a := range p.appenders() {
		target := a.published.Load()
		if a.durable.Load() >= target {
			continue
		}
		// Re-arm the sync request on every pass: a request consumed by a
		// persister sweep that ran before these records were drained
		// would otherwise sync without them and never come back (under
		// SyncNone nothing else ever syncs). The broadcast in markDurable
		// happens under p.mu, so arming before Wait cannot miss it.
		p.mu.Lock()
		for a.durable.Load() < target && p.accepting.Load() {
			a.stream.syncReq.Store(true)
			a.stream.kickAlways()
			p.cond.Wait()
		}
		p.mu.Unlock()
	}
}

// Snapshot triggers a snapshot now and waits for it to complete.
func (p *Pipeline) Snapshot() error {
	if !p.started.Load() || p.closed.Load() {
		return fmt.Errorf("persist: pipeline not running")
	}
	reply := make(chan error, 1)
	select {
	case p.snapReq <- reply:
		return <-reply
	case <-p.snapStop:
		return fmt.Errorf("persist: pipeline closing")
	}
}

// Close drains the change rings, writes and fsyncs everything
// outstanding, and stops the pipeline's goroutines. Producers must be
// quiescent (the server is shut down first); records appended
// concurrently with Close may be dropped. Idempotent.
func (p *Pipeline) Close() error {
	if !p.closed.CompareAndSwap(false, true) {
		return nil
	}
	if !p.started.Load() {
		return nil
	}
	close(p.snapStop)
	p.snapWG.Wait()
	p.stopping.Store(true)
	for _, s := range p.streams {
		s.kickAlways()
	}
	p.wg.Wait()
	p.mu.Lock()
	p.accepting.Store(false)
	p.mu.Unlock()
	p.cond.Broadcast()
	return nil
}

// markBroken records an unrecoverable persister failure (a dying WAL
// device): appenders stop accepting (the server keeps serving, cache
// first), Barrier waiters are released, and pending or future roll
// requests fail instead of blocking on a goroutine that is gone.
func (p *Pipeline) markBroken() {
	p.breakOnce.Do(func() { close(p.broken) })
	p.mu.Lock()
	p.accepting.Store(false)
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Kill is the crash-test hook: it stops the persisters abruptly —
// no drain, no flush, no fsync — leaving the on-disk state exactly as a
// process crash would (modulo the segment writer's user-space buffer,
// which a crash also loses). Tests then truncate the WAL tail and
// exercise Recover.
func (p *Pipeline) Kill() {
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	if !p.started.Load() {
		return
	}
	close(p.snapStop)
	p.snapWG.Wait()
	close(p.killed)
	p.wg.Wait()
	p.mu.Lock()
	p.accepting.Store(false)
	p.mu.Unlock()
	p.cond.Broadcast()
}

// Stats returns a snapshot of the pipeline counters.
func (p *Pipeline) Stats() Stats {
	return Stats{
		Policy:           p.cfg.Policy.String(),
		Records:          p.records.Load(),
		RecordBytes:      p.recordBytes.Load(),
		Fsyncs:           p.fsyncs.Load(),
		Rolls:            p.rolls.Load(),
		Dropped:          p.dropped.Load(),
		Snapshots:        p.snapshots.Load(),
		SnapshotErrors:   p.snapErrors.Load(),
		LastSnapEntries:  p.snapEntries.Load(),
		LastSnapBytes:    p.snapBytes.Load(),
		LastSnapUnixNano: p.snapWhen.Load(),
		Recovered:        p.recovered,
	}
}

// Collect emits the pipeline's counters, gauges and latency histograms
// into an exposition buffer; labels identifies the owning instance.
func (p *Pipeline) Collect(e *obs.Expo, labels string) {
	st := p.Stats()
	e.Counter("cphash_persist_records_total", "WAL records written.", labels, st.Records)
	e.Counter("cphash_persist_record_bytes_total", "WAL record payload bytes written.", labels, st.RecordBytes)
	e.Counter("cphash_persist_fsyncs_total", "WAL fsync calls.", labels, st.Fsyncs)
	e.Counter("cphash_persist_segment_rolls_total", "WAL segment rolls.", labels, st.Rolls)
	e.Counter("cphash_persist_dropped_records_total", "Records dropped while the pipeline was not accepting.", labels, st.Dropped)
	e.Counter("cphash_persist_snapshots_total", "Completed snapshots.", labels, st.Snapshots)
	e.Counter("cphash_persist_snapshot_errors_total", "Failed snapshot attempts.", labels, st.SnapshotErrors)
	if st.LastSnapUnixNano > 0 {
		age := float64(p.cfg.Clock()-st.LastSnapUnixNano) / 1e9
		e.Gauge("cphash_persist_snapshot_age_seconds", "Seconds since the last completed snapshot.", labels, age)
	}
	// Ring depth — records published by partition owners but not yet
	// durable — is the live measure of how far the persisters are behind.
	var depth int64
	for _, a := range p.appenders() {
		if d := int64(a.published.Load()) - int64(a.durable.Load()); d > 0 {
			depth += d
		}
	}
	e.Gauge("cphash_persist_ring_depth_records", "Published change records not yet durable, summed over partitions.", labels, float64(depth))
	e.Histogram("cphash_persist_fsync_latency_ns", "WAL fsync latency in nanoseconds.", labels, p.fsyncHist.Snapshot())
	e.Histogram("cphash_persist_barrier_wait_ns", "Durability barrier wait in nanoseconds.", labels, p.barrierHist.Snapshot())
}

// WALStatus reports each stream's current segment and durable offset.
func (p *Pipeline) WALStatus() []StreamStatus {
	out := make([]StreamStatus, 0, len(p.streams))
	for _, s := range p.streams {
		out = append(out, StreamStatus{
			Stream:       s.id,
			Segment:      s.path.Load(),
			Seq:          s.seq.Load(),
			WrittenBytes: s.written.Load(),
			DurableBytes: s.synced.Load(),
		})
	}
	return out
}

// snapshotLoop serves the periodic and manual snapshot triggers.
func (p *Pipeline) snapshotLoop() {
	defer p.snapWG.Done()
	var buf scanBuf
	var tickC <-chan time.Time
	if p.cfg.SnapshotInterval > 0 {
		t := time.NewTicker(p.cfg.SnapshotInterval)
		defer t.Stop()
		tickC = t.C
	}
	for {
		select {
		case <-p.snapStop:
			return
		case reply := <-p.snapReq:
			reply <- p.doSnapshot(&buf)
		case <-tickC:
			if err := p.doSnapshot(&buf); err != nil {
				p.snapErrors.Add(1)
			}
		}
	}
}

// --- Appender: the per-partition change sink ---

// recHeaderLen is a frame payload's header: op(1) key(8) expire(8)
// ver(8). The version rides every record so recovery and replica replay
// restore entries under the CAS version they were stored with.
const recHeaderLen = 25

// maxPooledRec caps the staged frame size served from the appender's
// recycled buffer pool; larger records (rare huge values) take a one-off
// allocation instead of pinning big buffers in every pool slot.
const maxPooledRec = 4 << 10

// Appender stages one partition's change records into pooled buffers and
// publishes them on the partition's SPSC change ring. It implements
// partition.ChangeSink. All methods must be called from the partition's
// single owner goroutine; the persister is the only other side of both
// rings, so the hot path takes no locks and — once the pool is warm —
// performs no allocation.
type Appender struct {
	p      *Pipeline
	part   int
	stream *stream

	pub  *ring.SPSC[[]byte] // staged records: appender -> persister
	free *ring.SPSC[[]byte] // recycled buffers: persister -> appender

	seq       uint64 // producer-private record count
	published atomic.Uint64
	durable   atomic.Uint64
	allocated int // pooled buffers created so far

	// persister-private: records written to the segment writer; durable
	// is advanced to this at each fsync.
	wseq uint64
}

// Partition returns the partition index this appender serves.
func (a *Appender) Partition() int { return a.part }

// Set stages a set record (value bytes are copied before return).
func (a *Appender) Set(key partition.Key, value []byte, expireAt int64, version uint64) {
	a.append(OpSet, key, expireAt, version, value)
}

// Delete stages a delete record.
func (a *Appender) Delete(key partition.Key) {
	a.append(OpDelete, key, 0, 0, nil)
}

func (a *Appender) append(op Op, key uint64, expireAt int64, version uint64, value []byte) {
	if !a.p.accepting.Load() {
		a.p.dropped.Add(1)
		return
	}
	b := a.getBuf(frameHeaderLen + recHeaderLen + len(value))
	b = appendUnsealed(b, op, key, expireAt, version, value)
	a.seq++
	// Publish, spinning if the persister is behind — durability must not
	// drop records, so a full ring is backpressure, not loss. (The ring
	// is built with lineMsgs=1, so Produce publishes immediately; no
	// Flush needed.) Bail out if the pipeline shuts down underneath us
	// (the record is then covered by the no-acceptance drop semantics).
	for !a.pub.Produce(b) {
		if !a.p.accepting.Load() {
			a.seq--
			a.p.dropped.Add(1)
			return
		}
		runtime.Gosched()
	}
	a.published.Store(a.seq)
	a.stream.kick()
}

// getBuf returns an empty buffer with capacity for n bytes: a pooled one
// when n fits the pool class, else a one-off allocation.
func (a *Appender) getBuf(n int) []byte {
	if n > maxPooledRec {
		return make([]byte, 0, n)
	}
	if b, ok := a.free.Consume(); ok {
		return b[:0]
	}
	if a.allocated < a.pub.Cap() {
		a.allocated++
		return make([]byte, 0, maxPooledRec)
	}
	// Pool exhausted: wait for the persister to recycle one.
	for {
		if b, ok := a.free.Consume(); ok {
			return b[:0]
		}
		if !a.p.accepting.Load() {
			return make([]byte, 0, maxPooledRec)
		}
		runtime.Gosched()
	}
}

// recycle returns a drained buffer to its appender's pool; called by the
// persister. Oversized one-off buffers are dropped to the GC.
func (a *Appender) recycle(b []byte) {
	if cap(b) != maxPooledRec {
		return
	}
	// The free ring is as deep as the pool can ever be, so this cannot
	// fail; guard anyway so a bug degrades to garbage, not a spin.
	if !a.free.Produce(b[:0]) {
		return
	}
	a.free.Flush()
}

// --- directory scanning ---

type segFile struct {
	path   string
	stream int
	seq    uint64
}

type snapFile struct {
	path string
	gen  uint64
}

// scanDir lists WAL segments and snapshots in dir.
func scanDir(dir string) (segs []segFile, snaps []snapFile, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	for _, e := range ents {
		name := e.Name()
		if st, seq, ok := parseWalName(name); ok {
			segs = append(segs, segFile{path: filepath.Join(dir, name), stream: st, seq: seq})
		} else if gen, ok := parseSnapName(name); ok {
			snaps = append(snaps, snapFile{path: filepath.Join(dir, name), gen: gen})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].gen < snaps[j].gen })
	return segs, snaps, nil
}
