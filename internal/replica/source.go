package replica

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
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
	// attaches its tail fanout to it, drives RollAll/ReplayDurable for
	// each follower's initial sync and FlushAll/ReadStream for each
	// catch-up, and takes its lineage.
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
	// connection (default 10s); it resumes when it reconnects.
	WriteTimeout time.Duration
	// HandshakeTimeout bounds each side of the hello exchange: reading
	// the follower's hello and writing the reply (default 5s). A dialer
	// that connects and stalls — a port scanner, a partitioned peer —
	// holds a serve goroutine no longer than this.
	HandshakeTimeout time.Duration
	// BacklogRecords bounds the in-memory tail backlog (default 4096,
	// about 1 MiB of frames). The backlog is only the fast path: a
	// follower that falls further behind reads the records it is missing
	// back from the WAL's segment files, in the same session, and then
	// continues from the backlog. Only a follower whose position lies in
	// a segment a snapshot has truncated away, or that follows another
	// lineage, must full-resync. Size it to cover a follower's usual lag,
	// so that reading the files stays the exception.
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
		c.BacklogRecords = defaultBacklogRecords
	}
	if c.BatchBytes <= 0 {
		c.BatchBytes = 32 << 10
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return nil
}

// defaultBacklogRecords is BacklogRecords' default; see that field.
const defaultBacklogRecords = 4096

// peer is one connected follower.
type peer struct {
	src    *Source
	conn   net.Conn
	hello  hello
	slots  *protocol.SlotSet // nil = all
	cursor atomic.Uint64     // next backlog seq to consume
	// resumed: the session began with a granted resume, so the first ack
	// certifies a catch-up, not an initial sync.
	resumed bool

	// pos is the sender's WAL position vector: per stream, the position
	// through which every record has been sent (or was already held).
	// Sender goroutine only.
	pos []persist.WALPos

	// frame assembly, reused per frame: hdr for frames without a body,
	// staging for 'D' frames (header room, then the body); hdrLen is the
	// header with its vector
	hdrLen  int
	hdr     []byte
	staging []byte
	// rd reads segment files during a catch-up (made on the first one).
	rd *bufio.Reader

	acked    atomic.Uint64
	ackMu    sync.Mutex
	ackedPos []persist.WALPos // the follower's vector from its last ack
	synced   atomic.Bool
	idle     atomic.Bool
	wake     chan struct{}
	dead     chan struct{} // closed by the ack reader on conn failure
	once     sync.Once
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
	// Position is the follower's acked WAL position per stream: the
	// segment it would catch up from after a disconnect.
	Position []persist.WALPos `json:"position"`
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

	// lineage is the pipeline's data-directory lineage. A follower's WAL
	// positions are meaningful to any Source on that directory, this one
	// or one before a restart, so a follower presenting this lineage may
	// resume — skip the initial sync — whenever the segment files still
	// hold the records after its positions; what the backlog no longer
	// holds it reads from them.
	lineage uint64
	streams int

	mu       sync.Mutex
	peers    map[*peer]struct{}
	hist     map[string]peerMemory // retained watermarks of dropped peers
	forgot   map[string]struct{}   // names ForgetPeer hit while their teardown was still in flight
	peerList atomic.Pointer[[]*peer]

	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	framesSent  atomic.Int64
	syncsRun    atomic.Int64
	resumesRun  atomic.Int64
	catchUpsRun atomic.Int64
}

// SourceStats counts what a source has served since it started.
type SourceStats struct {
	Frames   int64 `json:"frames"`   // frames sent
	Syncs    int64 `json:"syncs"`    // completed initial syncs
	Resumes  int64 `json:"resumes"`  // sessions resumed without a sync
	CatchUps int64 `json:"catchUps"` // gaps read back from the segment files
}

// Stats snapshots the source's counters.
func (s *Source) Stats() SourceStats {
	return SourceStats{
		Frames:   s.framesSent.Load(),
		Syncs:    s.syncsRun.Load(),
		Resumes:  s.resumesRun.Load(),
		CatchUps: s.catchUpsRun.Load(),
	}
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
	streams := cfg.Pipe.Streams()
	if streams > maxStreams {
		return nil, fmt.Errorf("replica: %d WAL streams exceed the protocol's %d", streams, maxStreams)
	}
	ln, err := listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}
	s := &Source{
		cfg:     cfg,
		ln:      ln,
		lineage: cfg.Pipe.Lineage(),
		streams: streams,
		peers:   map[*peer]struct{}{},
		hist:    map[string]peerMemory{},
		forgot:  map[string]struct{}{},
		stop:    make(chan struct{}),
	}
	s.bl.init(cfg.BacklogRecords, streams)
	cfg.Pipe.SetTailSink(s)
	// Every record past the flush reaches the backlog; the records
	// before it that the attach raced are the files' to serve.
	flushed, err := cfg.Pipe.FlushAll()
	if err != nil {
		cfg.Pipe.SetTailSink(nil)
		ln.Close()
		return nil, fmt.Errorf("replica: %w", err)
	}
	s.bl.raiseFrom(flushed)
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
// frame and its WAL position into the backlog and wakes idle peer
// senders — no blocking, no steady-state allocation, which is what keeps
// the request hot path at zero allocs with replication enabled.
func (s *Source) TailRecord(frame []byte, stream int, pos persist.WALPos) {
	s.bl.append(frame, s.cfg.Clock().UnixNano(), stream, pos)
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
		p.ackMu.Lock()
		pos := append([]persist.WALPos(nil), p.ackedPos...)
		p.ackMu.Unlock()
		out = append(out, PeerStatus{
			Name:     p.hello.name,
			Remote:   p.conn.RemoteAddr().String(),
			Slots:    nslots,
			Synced:   p.synced.Load(),
			Sent:     p.sent(),
			Acked:    p.acked.Load(),
			Position: pos,
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
		byName[p.hello.name] = PeerHealth{
			Name: p.hello.name, Up: true, Synced: p.synced.Load(),
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
		if p.hello.name == name {
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
	e.Counter("cphash_replica_catchups_total", "Follower gaps read back from the WAL's segment files instead of the backlog.", labels, s.catchUpsRun.Load())
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
// node. Only a dead peer is skipped — it catches up from whoever owns
// the slots next. Idempotent.
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
	delete(s.forgot, p.hello.name)
	s.storePeerListLocked()
	s.mu.Unlock()
	return s.bl.tail(), nil
}

func (s *Source) unregister(p *peer) {
	s.mu.Lock()
	delete(s.peers, p)
	if _, forgotten := s.forgot[p.hello.name]; forgotten {
		// ForgetPeer ran after this peer's connection was closed but
		// before the close was noticed here: honor it, don't retain.
		delete(s.forgot, p.hello.name)
	} else if p.hello.name != "" {
		// Retain the dropped peer's watermark so scrapes (and the failure
		// detector) see it down-and-lagging rather than gone.
		nslots := protocol.SlotCount
		if p.slots != nil {
			nslots = p.slots.Len()
		}
		s.hist[p.hello.name] = peerMemory{
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
		src:    s,
		conn:   conn,
		hdrLen: frameHeaderLen + posLen*s.streams,
		wake:   make(chan struct{}, 1),
		dead:   make(chan struct{}),
	}
	p.hdr = make([]byte, p.hdrLen)
	p.staging = make([]byte, p.hdrLen)
	p.pos = make([]persist.WALPos, s.streams)
	p.ackedPos = make([]persist.WALPos, s.streams)
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
	// Grant a resume iff the hello's positions are of this lineage and
	// the segment files still hold every stream's next record. Which
	// Source instance served the follower before does not matter: the
	// positions name records in the directory's WAL, not in a backlog. A
	// granted resume streams zero sync entries; the catch-up below reads
	// whatever the backlog no longer holds back from the segments.
	p.resumed = s.canResume(&p.hello)
	if p.resumed {
		copy(p.pos, p.hello.pos)
	} else {
		p.cursor.Store(tail + 1)
	}
	if err := p.writeReply(); err != nil {
		return
	}

	// The ack reader starts before the sync so a follower death mid-sync
	// closes the connection promptly. The follower sends its first ack
	// only after APPLYING the sync-done (or resume-done) frame, so
	// readAcks — not sync completion here — is what flips the peer to
	// synced: a synced peer provably holds the data.
	s.wg.Add(1)
	go p.readAcks()

	if p.resumed {
		s.resumesRun.Add(1)
		if p.catchUp() != nil {
			return
		}
		if p.sendFrame(frameResumeDone, p.sent(), p.hdr) != nil {
			return
		}
	} else if err := p.initialSync(); err != nil {
		return
	}
	p.live()
}

// canResume reports whether a follower's hello may skip the initial
// sync (see resumable).
func (s *Source) canResume(h *hello) bool {
	return resumable(h, s.lineage, s.streams, s.cfg.Pipe.Holds)
}

// resumable is the resume verdict for a hello at a source of the given
// lineage and stream count: the hello's positions are of that lineage,
// one per stream, and holds reports that every stream's segment files
// still hold the record after its position.
func resumable(h *hello, lineage uint64, streams int, holds func(stream int, pos persist.WALPos) bool) bool {
	if h.lineage == 0 || h.lineage != lineage || len(h.pos) != streams {
		return false
	}
	for st, at := range h.pos {
		if !holds(st, at) {
			return false
		}
	}
	return true
}

// readHello reads and decodes the follower's hello. The follower sends
// nothing more until it has the reply, so reading in chunks never reads
// past the hello.
func (p *peer) readHello() error {
	p.conn.SetReadDeadline(time.Now().Add(p.src.cfg.HandshakeTimeout))
	defer p.conn.SetReadDeadline(time.Time{})
	buf := make([]byte, 0, 512)
	for {
		h, _, err := decodeHello(buf)
		if err != errShort {
			if err == nil {
				p.hello = h
				if !h.allSlots() {
					p.slots = &p.hello.slots
				}
			}
			return err
		}
		buf = slices.Grow(buf, 512)
		n, err := p.conn.Read(buf[len(buf):cap(buf)])
		if err != nil {
			return err
		}
		buf = buf[:len(buf)+n]
	}
}

// writeReply completes the handshake: magic, the resume verdict, this
// source's lineage (the follower presents it with its positions next
// time) and its stream count.
func (p *peer) writeReply() error {
	out := appendReply(make([]byte, 0, replyLen), reply{resumed: p.resumed, lineage: p.src.lineage, streams: p.src.streams})
	p.conn.SetWriteDeadline(time.Now().Add(p.src.cfg.HandshakeTimeout))
	_, err := p.conn.Write(out)
	return err
}

// sendFrame stamps the header and the sender's position vector into
// frame[:hdrLen] and writes the frame in one call; the rest of frame is
// the body.
func (p *peer) sendFrame(typ byte, seq uint64, frame []byte) error {
	putFrameHeader(frame, typ, seq, p.src.cfg.Clock().UnixNano(), len(frame)-p.hdrLen, p.pos)
	p.conn.SetWriteDeadline(time.Now().Add(p.src.cfg.WriteTimeout))
	if _, err := p.conn.Write(frame); err != nil {
		return err
	}
	p.src.framesSent.Add(1)
	return nil
}

// flushBatch sends the staged 'D' frame, if it holds any record, at the
// given watermark seq.
func (p *peer) flushBatch(seq uint64) error {
	if len(p.staging) == p.hdrLen {
		return nil
	}
	err := p.sendFrame(frameData, seq, p.staging)
	p.staging = p.staging[:p.hdrLen]
	return err
}

// initialSync streams the durable prefix: roll every stream (the
// barrier), then replay snapshot + sealed segments below it, re-framed
// as WAL frames and batched into 'D' frames with seq 0 (pre-tail), then
// the sync-done marker at the tail position where live streaming begins.
// The marker's vector is the barrier: the follower holds every record
// before it, so backlog records at or before it are skipped rather than
// sent twice.
func (p *peer) initialSync() error {
	bar, err := p.src.cfg.Pipe.RollAll()
	if err != nil {
		return err
	}
	p.staging = p.staging[:p.hdrLen]
	_, err = p.src.cfg.Pipe.ReplayDurable(bar, func(op persist.Op, key uint64, exp int64, ver uint64, val []byte) error {
		if p.slots != nil && !p.slots.Has(cluster.SlotOf(key)) {
			return nil
		}
		p.staging = persist.AppendFrame(p.staging, persist.Record{Op: op, Key: key, ExpireAt: exp, Ver: ver, Value: val})
		if len(p.staging) >= p.src.cfg.BatchBytes {
			return p.flushBatch(0)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := p.flushBatch(0); err != nil {
		return err
	}
	for st := range p.pos {
		p.pos[st] = persist.SegmentStart(bar[st])
	}
	return p.sendFrame(frameSyncDone, p.sent(), p.hdr)
}

// catchUp brings a peer that the backlog cannot serve from its position
// vector up to where the backlog holds every record it lacks, then
// points its cursor there. Each round flushes the pipeline's segment
// writers (so the files hold everything up to the returned positions),
// reads every stream's records between the peer's position and the
// flushed one from the files — slot-filtered, in 'D' frames at the last
// sent seq — and tries the backlog again. The records after a flush
// reach the backlog, so one round suffices unless the backlog turned
// over while the round was read and sent; each further round reads only
// what was written during the one before, so a follower that drains its
// connection converges. A segment a snapshot deletes underfoot ends the
// session: the follower's next hello finds its position gone and
// full-resyncs.
func (p *peer) catchUp() error {
	pipe := p.src.cfg.Pipe
	for round := 0; ; round++ {
		if cursor, ok := p.src.bl.handoff(p.pos); ok {
			p.cursor.Store(cursor)
			return nil
		}
		select {
		case <-p.src.stop:
			return net.ErrClosed
		case <-p.dead:
			return net.ErrClosed
		default:
		}
		if round == 0 {
			p.src.catchUpsRun.Add(1)
			if p.rd == nil {
				p.rd = bufio.NewReaderSize(nil, 64<<10)
			}
			// Batches fill to BatchBytes here; grow the staging buffer
			// once rather than by doubling.
			p.staging = slices.Grow(p.staging[:p.hdrLen], p.src.cfg.BatchBytes)
		}
		to, err := pipe.FlushAll()
		if err != nil {
			return err
		}
		seq := p.sent()
		p.staging = p.staging[:p.hdrLen]
		for st := range to {
			err := pipe.ReadStream(p.rd, st, p.pos[st], to[st], func(frame []byte, pos persist.WALPos) error {
				p.pos[st] = pos
				if p.slots != nil && !p.slots.Has(cluster.SlotOf(persist.FrameKey(frame))) {
					return nil
				}
				p.staging = append(p.staging, frame...)
				if len(p.staging) >= p.src.cfg.BatchBytes {
					return p.flushBatch(seq)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if p.pos[st].Before(to[st]) {
				p.pos[st] = to[st]
			}
		}
		if err := p.flushBatch(seq); err != nil {
			return err
		}
	}
}

// live streams the backlog from the peer's cursor, heartbeating when
// idle so the follower's staleness estimate keeps advancing. A peer that
// falls off the backlog catches up from the segment files and carries
// on.
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
		frame, next, matched, overrun := p.src.bl.collect(p.cursor.Load(), p.slots, p.pos, p.staging[:p.hdrLen], p.src.cfg.BatchBytes)
		p.staging = frame
		if overrun {
			if p.catchUp() != nil {
				return
			}
			continue
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
			if err := p.sendFrame(frameHeartbeat, p.sent(), p.hdr); err != nil {
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

// readAcks drains follower acknowledgements, advancing the watermark and
// recording the follower's position vector.
func (p *peer) readAcks() {
	defer p.src.wg.Done()
	defer p.once.Do(func() { close(p.dead) })
	defer p.conn.Close() // unblock the sender
	br := bufio.NewReaderSize(p.conn, 4<<10)
	ack := make([]byte, ackFixedLen+posLen*p.src.streams)
	for {
		if _, err := io.ReadFull(br, ack); err != nil {
			return
		}
		if ack[0] != ackByte {
			return
		}
		if !p.synced.Load() {
			// First ack = the follower applied the entire initial sync
			// (or, resumed, the entire catch-up).
			p.synced.Store(true)
			if !p.resumed {
				p.src.syncsRun.Add(1)
			}
		}
		seq := binary.LittleEndian.Uint64(ack[1:9])
		for {
			cur := p.acked.Load()
			if seq <= cur || p.acked.CompareAndSwap(cur, seq) {
				break
			}
		}
		p.ackMu.Lock()
		decodePositions(p.ackedPos, ack[ackFixedLen:])
		p.ackMu.Unlock()
	}
}
