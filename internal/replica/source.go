package replica

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cphash/internal/cluster"
	"cphash/internal/obs"
	"cphash/internal/persist"
	"cphash/internal/protocol"
)

// SourceConfig parameterizes the primary side of replication.
type SourceConfig struct {
	// Pipe is the primary's running durability pipeline; the source
	// attaches its tail fanout to it and drives RollAll/ReplayDurable for
	// each follower's initial sync.
	Pipe *persist.Pipeline
	// Addr is the replication listen address (e.g. "127.0.0.1:0" — the
	// bound address is available from Addr() afterwards). Replication
	// runs on its own listener so follower traffic never contends with
	// the request wire protocol's accept loop.
	Addr string
	// Heartbeat is the idle cadence at which followers receive watermark
	// + timestamp frames (default 100ms); it bounds follower-read
	// staleness on an idle primary.
	Heartbeat time.Duration
	// WriteTimeout disconnects a follower that stops draining its
	// connection (default 10s); it will resync when it recovers.
	WriteTimeout time.Duration
	// HandshakeTimeout bounds each side of the hello exchange: reading
	// the follower's hello and writing the reply (default 5s). A dialer
	// that connects and stalls — a port scanner, a partitioned peer —
	// holds a serve goroutine no longer than this.
	HandshakeTimeout time.Duration
	// BacklogRecords bounds the in-memory tail backlog (default 65536).
	// A follower that falls more than this many records behind is
	// disconnected and must full-resync — catch-up storage is the WAL's
	// job, not the backlog's.
	BacklogRecords int
	// BatchBytes bounds the records packed into one 'D' frame (default
	// 32 KiB of WAL frames).
	BatchBytes int
	// Clock supplies frame timestamps (nil = wall clock). Followers
	// compute staleness against it, so primary and follower clocks must
	// agree to within the staleness tolerance.
	Clock func() time.Time
	// Listen overrides listener creation (nil = net.Listen). Fault
	// harnesses install chaos.Director.Listen here so partition and
	// slow-link rules reach the replication wire.
	Listen func(network, addr string) (net.Listener, error)
}

func (c *SourceConfig) setDefaults() error {
	if c.Pipe == nil {
		return fmt.Errorf("replica: SourceConfig.Pipe is required")
	}
	if c.Addr == "" {
		return fmt.Errorf("replica: SourceConfig.Addr is required")
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 100 * time.Millisecond
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 5 * time.Second
	}
	if c.BacklogRecords <= 0 {
		c.BacklogRecords = 65536
	}
	if c.BatchBytes <= 0 {
		c.BatchBytes = 32 << 10
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return nil
}

// blEntry is one backlog record: its tail seq, its append stamp
// (source-clock nanos, so a scrape can turn a peer's record lag into a
// wall-time lag), and where its frame lies in the byte ring: n bytes at
// absolute offset off, i.e. data[off%len(data):][:n].
type blEntry struct {
	seq uint64
	at  int64
	off uint64
	n   uint64
}

// ringBytesPerRecord sizes the byte ring's first allocation from
// measured traffic. A frame is 33 B of headers (8 B WAL framing, 25 B
// record header) plus its value; durable_set50's frames average ~140 B,
// and the space skipped at the ring's end adds to that. At 256 B per
// record (16 MiB at the default 65 536) the ring never doubles there;
// at 128 B it doubled once per source and the outgrown 8 MiB ring stayed
// resident (rss_mb 115 against 98).
const ringBytesPerRecord = 256

// backlog is the bounded tail ring: TailRecord appends under the mutex
// (persister goroutines, one per WAL stream), peer senders copy out
// under it. Sequence numbers start at 1 and never wrap in practice.
//
// Records and their bytes live in two rings. buf holds the last
// len(buf) records' entries; data holds their frames back to back,
// addressed by an absolute byte offset modulo len(data). A frame that
// would straddle the end of data starts again at its front instead, so
// every frame is one contiguous slice of data. When the live frames plus
// a new one do not fit, data doubles and the live frames are copied to
// its front, renumbered from offset 0; it never shrinks. The backlog
// thus holds about the bytes of its last len(buf) frames, and it is
// pointer-free, so the collector never scans it.
type backlog struct {
	mu   sync.Mutex
	buf  []blEntry
	data []byte
	head uint64 // absolute offset just past the newest frame
	next uint64
}

// init sizes an empty backlog for the given record bound.
func (b *backlog) init(records int) {
	b.buf = make([]blEntry, records)
	b.data = make([]byte, records*ringBytesPerRecord)
	b.next = 1
}

// oldestLocked returns the oldest retained seq (next when empty).
func (b *backlog) oldestLocked() uint64 {
	if n := uint64(len(b.buf)); b.next > n {
		return b.next - n
	}
	return 1
}

// frameLocked returns the stored frame of a retained record.
func (b *backlog) frameLocked(e *blEntry) []byte {
	at := e.off % uint64(len(b.data))
	return b.data[at : at+e.n]
}

// append stamps a frame with the next tail seq and stores it.
func (b *backlog) append(frame []byte, at int64) {
	b.mu.Lock()
	n := uint64(len(frame))
	// The records that stay live once this one evicts the oldest slot.
	keep := b.oldestLocked()
	if b.next-keep+1 > uint64(len(b.buf)) {
		keep++
	}
	off := b.place(b.head, n)
	start := off
	if keep < b.next {
		start = b.buf[keep%uint64(len(b.buf))].off
	}
	if off+n-start > uint64(len(b.data)) {
		b.grow(keep, n)
		off = b.head
	}
	copy(b.data[off%uint64(len(b.data)):], frame)
	b.buf[b.next%uint64(len(b.buf))] = blEntry{seq: b.next, at: at, off: off, n: n}
	b.head = off + n
	b.next++
	b.mu.Unlock()
}

// place returns the offset at or after head where an n-byte frame sits
// contiguously: head itself, or the start of the next lap when the frame
// would straddle the end of data.
func (b *backlog) place(head, n uint64) uint64 {
	size := uint64(len(b.data))
	if at := head % size; at+n > size {
		return head + size - at
	}
	return head
}

// grow doubles data until the frames of records [keep, next) plus an
// n-byte frame fit, copying those frames to its front.
func (b *backlog) grow(keep, n uint64) {
	live := n
	for s := keep; s < b.next; s++ {
		live += b.buf[s%uint64(len(b.buf))].n
	}
	size := 2 * len(b.data)
	for uint64(size) < live {
		size *= 2
	}
	data := make([]byte, size)
	var off uint64
	for s := keep; s < b.next; s++ {
		e := &b.buf[s%uint64(len(b.buf))]
		copy(data[off:], b.frameLocked(e))
		e.off = off
		off += e.n
	}
	b.data = data
	b.head = off
}

// tail returns the last assigned seq (0 = nothing yet).
func (b *backlog) tail() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.next - 1
}

// covers reports whether streaming can start at seq from: every record in
// [from, tail] is still retained (from == next means nothing to stream,
// which trivially covers).
func (b *backlog) covers(from uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return from >= b.oldestLocked() && from <= b.next
}

// stampAt returns the append timestamp of seq, or 0 when seq is not (or
// no longer) in the backlog.
func (b *backlog) stampAt(seq uint64) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if seq == 0 || seq >= b.next {
		return 0
	}
	e := &b.buf[seq%uint64(len(b.buf))]
	if e.seq != seq {
		return 0
	}
	return e.at
}

// collect copies the frames of records [from, tail] matching slots into
// dst (up to maxBytes), returning the extended body, the next unconsumed
// seq, how many records matched, and whether from has already been
// overwritten (the peer fell off the backlog).
func (b *backlog) collect(from uint64, slots *protocol.SlotSet, dst []byte, maxBytes int) (out []byte, next uint64, matched int, overrun bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if from < b.oldestLocked() {
		return dst, from, 0, true
	}
	next = from
	for next < b.next && len(dst) < maxBytes {
		rec := b.frameLocked(&b.buf[next%uint64(len(b.buf))])
		if slots == nil || slots.Has(cluster.SlotOf(persist.FrameKey(rec))) {
			dst = append(dst, rec...)
			matched++
		}
		next++
	}
	return dst, next, matched, false
}

// peer is one connected follower.
type peer struct {
	src    *Source
	conn   net.Conn
	name   string
	slots  *protocol.SlotSet // nil = all
	cursor atomic.Uint64     // next backlog seq to consume

	// resume request from the hello (zero when the follower never synced).
	resumeSession uint64
	resumeSeq     uint64

	// frame assembly, reused per frame: hdr for frames without a body,
	// staging for 'D' frames (header room, then the body)
	hdr     [frameHeaderLen]byte
	staging []byte

	acked  atomic.Uint64
	synced atomic.Bool
	idle   atomic.Bool
	wake   chan struct{}
	dead   chan struct{} // closed by the ack reader on conn failure
	once   sync.Once
}

// sent returns the highest tail seq covered by sent frames. The peer is
// published to the peer set before its cursor is first stored, so a
// scrape in that window sees cursor 0 — clamp it to 0 rather than
// underflowing cursor-1 to 2^64-1.
func (p *peer) sent() uint64 {
	if c := p.cursor.Load(); c > 0 {
		return c - 1
	}
	return 0
}

// PeerStatus describes one connected follower for /replication.
type PeerStatus struct {
	Name   string `json:"name"`
	Remote string `json:"remote"`
	Slots  int    `json:"slots"` // subscribed slot count (256 = all)
	Synced bool   `json:"synced"`
	Sent   uint64 `json:"sent"`  // highest tail seq covered by sent frames
	Acked  uint64 `json:"acked"` // highest applied seq the follower confirmed
}

// PeerHealth describes one follower the source knows of — connected or
// not. Disconnected peers keep their last acked/sent watermarks until
// ForgetPeer, so a scrape (and the failure detector reading it) sees a
// dead follower as up=0 with a growing lag, not as a vanished series.
type PeerHealth struct {
	Name   string `json:"name"`
	Up     bool   `json:"up"`
	Synced bool   `json:"synced"`
	Slots  int    `json:"slots"`
	Sent   uint64 `json:"sent"`
	Acked  uint64 `json:"acked"`
}

// peerMemory is the retained watermark of a peer that has disconnected.
type peerMemory struct {
	slots  int
	sent   uint64
	acked  uint64
	synced bool // whether the peer had completed a sync when it dropped
}

// Source is the primary side: it fans the WAL tail into a backlog and
// serves follower connections on a dedicated listener.
type Source struct {
	cfg SourceConfig
	ln  net.Listener
	bl  backlog

	// session identifies this Source instance (nonzero); sequence numbers
	// are only meaningful within one session, so a follower may resume —
	// skip the initial sync — iff it presents this id and the backlog
	// still covers its applied watermark.
	session uint64

	mu       sync.Mutex
	peers    map[*peer]struct{}
	hist     map[string]peerMemory // retained watermarks of dropped peers
	forgot   map[string]struct{}   // names ForgetPeer hit while their teardown was still in flight
	peerList atomic.Pointer[[]*peer]

	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	framesSent atomic.Int64
	syncsRun   atomic.Int64
	resumesRun atomic.Int64
}

// NewSource attaches the tail fanout to cfg.Pipe and starts the
// replication listener. Close detaches and stops everything.
func NewSource(cfg SourceConfig) (*Source, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	listen := cfg.Listen
	if listen == nil {
		listen = net.Listen
	}
	ln, err := listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}
	s := &Source{
		cfg:    cfg,
		ln:     ln,
		peers:  map[*peer]struct{}{},
		hist:   map[string]peerMemory{},
		forgot: map[string]struct{}{},
		stop:   make(chan struct{}),
	}
	for s.session == 0 {
		s.session = rand.Uint64()
	}
	s.bl.init(cfg.BacklogRecords)
	cfg.Pipe.SetTailSink(s)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound replication address.
func (s *Source) Addr() string { return s.ln.Addr().String() }

// Tail returns the last tail seq assigned (the replication high-water
// mark; 0 = no records since the source started).
func (s *Source) Tail() uint64 { return s.bl.tail() }

// TailRecord implements persist.TailSink: called on the persister
// goroutines for every record written to a segment. It copies the
// frame into the backlog and wakes idle peer senders — no blocking, no
// steady-state allocation, which is what keeps the request hot path at
// zero allocs with replication enabled.
func (s *Source) TailRecord(frame []byte) {
	s.bl.append(frame, s.cfg.Clock().UnixNano())
	if pl := s.peerList.Load(); pl != nil {
		for _, p := range *pl {
			if p.idle.Load() {
				select {
				case p.wake <- struct{}{}:
				default:
				}
			}
		}
	}
}

// Status snapshots every connected follower.
func (s *Source) Status() []PeerStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]PeerStatus, 0, len(s.peers))
	for p := range s.peers {
		nslots := protocol.SlotCount
		if p.slots != nil {
			nslots = p.slots.Len()
		}
		out = append(out, PeerStatus{
			Name:   p.name,
			Remote: p.conn.RemoteAddr().String(),
			Slots:  nslots,
			Synced: p.synced.Load(),
			Sent:   p.sent(),
			Acked:  p.acked.Load(),
		})
	}
	return out
}

// Peers snapshots every follower the source knows of — connected ones
// with live watermarks, dropped ones with the watermarks they held when
// they disconnected — sorted by name. This is the failure detector's
// view: a peer that stops appearing up here is a candidate for
// promotion, and its retained acked watermark says how far behind the
// takeover point is.
func (s *Source) Peers() []PeerHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	byName := make(map[string]PeerHealth, len(s.peers)+len(s.hist))
	for name, m := range s.hist {
		byName[name] = PeerHealth{
			Name: name, Up: false, Synced: false,
			Slots: m.slots, Sent: m.sent, Acked: m.acked,
		}
	}
	for p := range s.peers {
		nslots := protocol.SlotCount
		if p.slots != nil {
			nslots = p.slots.Len()
		}
		byName[p.name] = PeerHealth{
			Name: p.name, Up: true, Synced: p.synced.Load(),
			Slots: nslots, Sent: p.sent(), Acked: p.acked.Load(),
		}
	}
	out := make([]PeerHealth, 0, len(byName))
	for _, h := range byName {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ForgetPeer drops the retained watermark of a disconnected peer. The
// mesh calls it when a member leaves the cluster for good (rewire no
// longer places it), so departures stop scraping as down followers.
// It is authoritative against an in-flight teardown: the caller closes
// the follower's connection before calling, but unregister runs on the
// serve goroutine only once the close is noticed — if that peer is
// still registered, its name is marked so the late unregister doesn't
// re-insert it into hist as a phantom permanently-down follower.
func (s *Source) ForgetPeer(name string) {
	s.mu.Lock()
	delete(s.hist, name)
	for p := range s.peers {
		if p.name == name {
			s.forgot[name] = struct{}{}
			break
		}
	}
	s.mu.Unlock()
}

// Collect emits the source's replication gauges: the tail watermark,
// frame/sync/resume counters, and a per-peer breakdown for every peer
// the source knows of. A disconnected follower does NOT vanish: it
// scrapes as cphash_replica_peer_up 0 with its last acked watermark
// retained, so its lag keeps growing against the advancing tail — the
// exact down-and-falling-behind signal the failure detector thresholds
// on (a vanished series is indistinguishable from "never existed").
func (s *Source) Collect(e *obs.Expo, labels string) {
	tail := s.Tail()
	e.Gauge("cphash_replica_tail_seq", "Replication tail high-water mark.", labels, float64(tail))
	e.Counter("cphash_replica_frames_sent_total", "Replication frames sent to followers.", labels, s.framesSent.Load())
	e.Counter("cphash_replica_resyncs_total", "Completed follower initial syncs.", labels, s.syncsRun.Load())
	e.Counter("cphash_replica_resumes_total", "Follower sessions resumed warm (zero sync entries streamed).", labels, s.resumesRun.Load())
	peers := s.Peers()
	live := 0
	now := s.cfg.Clock().UnixNano()
	for _, ps := range peers {
		if ps.Up {
			live++
		}
		pl := obs.WithLabel(labels, "peer", ps.Name)
		var up float64
		if ps.Up {
			up = 1
		}
		e.Gauge("cphash_replica_peer_up", "Whether the peer's replication link is connected (1 = yes).", pl, up)
		lag := int64(tail) - int64(ps.Acked)
		if lag < 0 {
			lag = 0
		}
		e.Gauge("cphash_replica_lag_records", "Records between the tail and the peer's acked watermark (retained across disconnects).", pl, float64(lag))
		var lagMs float64
		if lag > 0 {
			if at := s.bl.stampAt(ps.Acked + 1); at > 0 && now > at {
				lagMs = float64(now-at) / 1e6
			}
		}
		e.Gauge("cphash_replica_lag_ms", "Age of the oldest unacked record in milliseconds.", pl, lagMs)
		backlog := int64(tail) - int64(ps.Sent)
		if backlog < 0 {
			backlog = 0
		}
		e.Gauge("cphash_replica_backlog_records", "Records not yet shipped to the peer.", pl, float64(backlog))
		var synced float64
		if ps.Synced {
			synced = 1
		}
		e.Gauge("cphash_replica_peer_synced", "Whether the peer completed its initial sync (1 = yes; 0 while down).", pl, synced)
	}
	e.Gauge("cphash_replica_followers", "Currently connected followers.", labels, float64(live))
}

// Close detaches the tail fanout, waits (bounded) for every live
// follower — including one still mid-initial-sync — to finish syncing
// and acknowledge the final tail, then stops the listener and
// disconnects everyone. The drain is what makes a graceful shutdown
// lose nothing: records appended by a final persist.Barrier are shipped
// and applied before the connections come down, so a promotion that
// follows observes the full acked history on the standby. Mid-sync
// peers matter precisely in the failover edge: right after a promotion
// the new primary's standbys are resyncing, and a graceful close that
// cut them loose unsynced would strand acked writes on the closing
// node. Only a dead peer is skipped — it catches up by resyncing from
// whoever owns the slots next. Idempotent.
func (s *Source) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.cfg.Pipe.SetTailSink(nil)
	s.drain(5 * time.Second)
	close(s.stop)
	s.ln.Close()
	s.mu.Lock()
	for p := range s.peers {
		p.conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// drain blocks until every synced, live peer has acknowledged the tail
// as of detach, or the timeout elapses. Slot-filtered peers whose last
// matching record is old still converge: followers ack heartbeat frames,
// which carry the cursor watermark, within one heartbeat interval.
func (s *Source) drain(timeout time.Duration) {
	tail := s.bl.tail()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if s.drainedTo(tail) {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *Source) drainedTo(tail uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for p := range s.peers {
		select {
		case <-p.dead:
			continue
		default:
		}
		if !p.synced.Load() || p.acked.Load() < tail {
			return false
		}
	}
	return true
}

func (s *Source) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.serve(conn)
	}
}

// register adds a peer to the set and the COW wake list; the tail seq it
// returns is read after registration, so every later record either wakes
// the peer or predates its initial-sync roll barrier.
func (s *Source) register(p *peer) (tail uint64, err error) {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return 0, fmt.Errorf("replica: source closed")
	}
	s.peers[p] = struct{}{}
	// A reconnect supersedes any pending forget of the same name: this
	// peer's eventual disconnect should retain its watermark normally.
	delete(s.forgot, p.name)
	s.storePeerListLocked()
	s.mu.Unlock()
	return s.bl.tail(), nil
}

func (s *Source) unregister(p *peer) {
	s.mu.Lock()
	delete(s.peers, p)
	if _, forgotten := s.forgot[p.name]; forgotten {
		// ForgetPeer ran after this peer's connection was closed but
		// before the close was noticed here: honor it, don't retain.
		delete(s.forgot, p.name)
	} else if p.name != "" {
		// Retain the dropped peer's watermark so scrapes (and the failure
		// detector) see it down-and-lagging rather than gone.
		nslots := protocol.SlotCount
		if p.slots != nil {
			nslots = p.slots.Len()
		}
		s.hist[p.name] = peerMemory{
			slots:  nslots,
			sent:   p.sent(),
			acked:  p.acked.Load(),
			synced: p.synced.Load(),
		}
	}
	s.storePeerListLocked()
	s.mu.Unlock()
	p.conn.Close()
}

func (s *Source) storePeerListLocked() {
	pl := make([]*peer, 0, len(s.peers))
	for p := range s.peers {
		pl = append(pl, p)
	}
	s.peerList.Store(&pl)
}

// serve runs one follower connection to completion.
func (s *Source) serve(conn net.Conn) {
	defer s.wg.Done()
	p := &peer{
		src:     s,
		conn:    conn,
		staging: make([]byte, frameHeaderLen),
		wake:    make(chan struct{}, 1),
		dead:    make(chan struct{}),
	}
	if err := p.readHello(); err != nil {
		conn.Close()
		return
	}
	tail, err := s.register(p)
	if err != nil {
		conn.Close()
		return
	}
	defer s.unregister(p)
	// Grant a warm resume iff the hello names this session — sequence
	// numbers are incomparable across Source instances — and the backlog
	// still covers everything past the follower's applied watermark. A
	// granted resume streams zero sync entries; the follower is already
	// synced at resumeSeq, which is what makes a mesh rewire (or a brief
	// link blip) free on a warm pair. If the backlog evicts the gap
	// between this check and live streaming, collect reports an overrun
	// and the peer falls back to a full resync on its next connection.
	resume := p.resumeSession == s.session && p.resumeSeq <= tail && s.bl.covers(p.resumeSeq+1)
	if resume {
		p.cursor.Store(p.resumeSeq + 1)
		p.acked.Store(p.resumeSeq)
		p.synced.Store(true)
	} else {
		p.cursor.Store(tail + 1)
	}
	if err := p.writeReply(resume); err != nil {
		return
	}

	// The ack reader starts before the sync so a follower death mid-sync
	// closes the connection promptly. The follower sends its first ack
	// only after APPLYING the sync-done frame, so readAcks — not sync
	// completion here — is what flips the peer to synced: a synced peer
	// provably holds the data. (A resumed peer proved it last session;
	// it is synced from the start.)
	s.wg.Add(1)
	go p.readAcks()

	if resume {
		s.resumesRun.Add(1)
		if p.sendFrame(frameResumeDone, p.resumeSeq, p.hdr[:]) != nil {
			return
		}
	} else if err := p.initialSync(); err != nil {
		return
	}
	p.live()
}

// readHello validates and stores the follower's hello.
func (p *peer) readHello() error {
	p.conn.SetReadDeadline(time.Now().Add(p.src.cfg.HandshakeTimeout))
	defer p.conn.SetReadDeadline(time.Time{})
	br := bufio.NewReaderSize(p.conn, 256)
	var magic [len(replMagic) + 1]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return err
	}
	if string(magic[:len(replMagic)]) != replMagic {
		return fmt.Errorf("replica: bad handshake magic")
	}
	name := make([]byte, magic[len(replMagic)])
	if _, err := io.ReadFull(br, name); err != nil {
		return err
	}
	p.name = string(name)
	var set protocol.SlotSet
	if _, err := io.ReadFull(br, set[:]); err != nil {
		return err
	}
	all := true
	for s := 0; s < protocol.SlotCount; s++ {
		if !set.Has(s) {
			all = false
			break
		}
	}
	if !all {
		p.slots = &set
	}
	var resume [helloResumeLen]byte
	if _, err := io.ReadFull(br, resume[:]); err != nil {
		return err
	}
	p.resumeSession = binary.LittleEndian.Uint64(resume[0:8])
	p.resumeSeq = binary.LittleEndian.Uint64(resume[8:16])
	return nil
}

// writeReply completes the handshake: magic, the resume verdict, and
// this source's session id (the follower presents it to resume next
// time).
func (p *peer) writeReply(resumed bool) error {
	reply := make([]byte, 0, replyLen)
	reply = append(reply, replMagic...)
	var flags byte
	if resumed {
		flags |= replyFlagResumed
	}
	reply = append(reply, flags)
	reply = binary.LittleEndian.AppendUint64(reply, p.src.session)
	p.conn.SetWriteDeadline(time.Now().Add(p.src.cfg.HandshakeTimeout))
	_, err := p.conn.Write(reply)
	return err
}

// sendFrame stamps the header into frame[:frameHeaderLen] and writes the
// frame in one call; the rest of frame is the body.
func (p *peer) sendFrame(typ byte, seq uint64, frame []byte) error {
	putFrameHeader(frame, typ, seq, p.src.cfg.Clock().UnixNano(), len(frame)-frameHeaderLen)
	p.conn.SetWriteDeadline(time.Now().Add(p.src.cfg.WriteTimeout))
	if _, err := p.conn.Write(frame); err != nil {
		return err
	}
	p.src.framesSent.Add(1)
	return nil
}

// initialSync streams the durable prefix: roll every stream (the
// barrier), then replay snapshot + sealed segments below it, re-framed
// as WAL frames and batched into 'D' frames with seq 0 (pre-tail), then
// the sync-done marker at the tail position where live streaming begins.
// Records between peer registration and the roll barrier appear in both
// phases; replay idempotency makes that overlap correct.
func (p *peer) initialSync() error {
	bar, err := p.src.cfg.Pipe.RollAll()
	if err != nil {
		return err
	}
	p.staging = p.staging[:frameHeaderLen]
	flushBatch := func() error {
		if len(p.staging) == frameHeaderLen {
			return nil
		}
		err := p.sendFrame(frameData, 0, p.staging)
		p.staging = p.staging[:frameHeaderLen]
		return err
	}
	_, err = p.src.cfg.Pipe.ReplayDurable(bar, func(op persist.Op, key uint64, exp int64, ver uint64, val []byte) error {
		if p.slots != nil && !p.slots.Has(cluster.SlotOf(key)) {
			return nil
		}
		p.staging = persist.AppendFrame(p.staging, persist.Record{Op: op, Key: key, ExpireAt: exp, Ver: ver, Value: val})
		if len(p.staging) >= p.src.cfg.BatchBytes {
			return flushBatch()
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := flushBatch(); err != nil {
		return err
	}
	return p.sendFrame(frameSyncDone, p.cursor.Load()-1, p.hdr[:])
}

// live streams the backlog from the peer's cursor, heartbeating when
// idle so the follower's staleness estimate keeps advancing.
func (p *peer) live() {
	ticker := time.NewTicker(p.src.cfg.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-p.src.stop:
			return
		case <-p.dead:
			return
		default:
		}
		frame, next, matched, overrun := p.src.bl.collect(p.cursor.Load(), p.slots, p.staging[:frameHeaderLen], p.src.cfg.BatchBytes)
		p.staging = frame
		if overrun {
			return // fell off the backlog: disconnect, follower resyncs
		}
		if matched > 0 {
			if err := p.sendFrame(frameData, next-1, frame); err != nil {
				return
			}
			p.cursor.Store(next)
			continue
		}
		p.cursor.Store(next)
		p.idle.Store(true)
		if p.src.bl.tail() >= p.cursor.Load() { // kick protocol: recheck after publishing idleness
			p.idle.Store(false)
			continue
		}
		select {
		case <-p.wake:
		case <-ticker.C:
			if err := p.sendFrame(frameHeartbeat, p.cursor.Load()-1, p.hdr[:]); err != nil {
				p.idle.Store(false)
				return
			}
		case <-p.src.stop:
			p.idle.Store(false)
			return
		case <-p.dead:
			p.idle.Store(false)
			return
		}
		p.idle.Store(false)
	}
}

// readAcks drains follower acknowledgements, advancing the watermark.
func (p *peer) readAcks() {
	defer p.src.wg.Done()
	defer p.once.Do(func() { close(p.dead) })
	defer p.conn.Close() // unblock the sender
	br := bufio.NewReaderSize(p.conn, 4<<10)
	var ack [ackLen]byte
	for {
		if _, err := io.ReadFull(br, ack[:]); err != nil {
			return
		}
		if ack[0] != ackByte {
			return
		}
		if !p.synced.Load() {
			// First ack = the follower applied the entire initial sync.
			p.synced.Store(true)
			p.src.syncsRun.Add(1)
		}
		seq := binary.LittleEndian.Uint64(ack[1:9])
		for {
			cur := p.acked.Load()
			if seq <= cur || p.acked.CompareAndSwap(cur, seq) {
				break
			}
		}
	}
}
