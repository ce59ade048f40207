package replica

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cphash/internal/obs"
	"cphash/internal/persist"
	"cphash/internal/protocol"
)

// FollowerConfig parameterizes one replication link (this node following
// one primary for a set of slots).
type FollowerConfig struct {
	// Source is the primary's replication address (Source.Addr()).
	Source string
	// Name identifies this follower in the primary's peer status
	// (conventionally the follower's serving address).
	Name string
	// Slots is the subscribed slot set; nil subscribes to everything.
	Slots *protocol.SlotSet
	// Apply receives the replicated records.
	Apply Applier
	// DialTimeout bounds connection attempts (default 2s).
	DialTimeout time.Duration
	// Dial overrides connection establishment (nil = net.DialTimeout).
	// Fault harnesses install chaos.Director.Dialer(Name) here so
	// partition and slow-link rules reach the replication wire.
	Dial func(network, addr string, timeout time.Duration) (net.Conn, error)
	// ReadTimeout declares the link dead after this much silence —
	// heartbeats arrive every Source Heartbeat, so several multiples of
	// that (default 10s).
	ReadTimeout time.Duration
	// Backoff is the reconnect backoff base, doubled per consecutive
	// failure up to BackoffMax and jittered into [d/2, d] — the same
	// scheme as the client breaker, so the followers of a restarted
	// source don't redial in lockstep (default 100ms).
	Backoff time.Duration
	// BackoffMax caps the doubled backoff (default 32× Backoff).
	BackoffMax time.Duration
	// Clock supplies "now" for staleness computation (nil = wall clock);
	// it must agree with the Source's clock.
	Clock func() time.Time

	// rnd draws the jitter (tests pin it; nil = math/rand).
	rnd func(int64) int64
}

// backoffFor returns the delay before the reconnect attempt following
// `streak` consecutive failed sessions: Backoff doubled per failure up
// to BackoffMax, then jittered into [d/2, d].
func (c *FollowerConfig) backoffFor(streak int) time.Duration {
	d := c.Backoff
	for i := 0; i < streak && d < c.BackoffMax; i++ {
		d *= 2
	}
	if d > c.BackoffMax {
		d = c.BackoffMax
	}
	half := int64(d / 2)
	return time.Duration(half + c.rnd(half+1))
}

func (c *FollowerConfig) setDefaults() error {
	if c.Source == "" {
		return fmt.Errorf("replica: FollowerConfig.Source is required")
	}
	if c.Apply == nil {
		return fmt.Errorf("replica: FollowerConfig.Apply is required")
	}
	if len(c.Name) > 255 {
		return fmt.Errorf("replica: FollowerConfig.Name too long")
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 10 * time.Second
	}
	if c.Backoff <= 0 {
		c.Backoff = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 32 * c.Backoff
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.rnd == nil {
		c.rnd = rand.Int63n
	}
	return nil
}

// FollowerStatus snapshots one link for /replication and the lag gates.
type FollowerStatus struct {
	Source      string `json:"source"`
	Connected   bool   `json:"connected"`
	Synced      bool   `json:"synced"` // initial sync done on the current connection
	AppliedSeq  uint64 `json:"appliedSeq"`
	StalenessMS int64  `json:"stalenessMs"` // -1 until the first sync completes
	Syncs       int64  `json:"syncs"`
	Resumes     int64  `json:"resumes"` // sessions resumed from the held WAL position, with zero sync entries
	Frames      int64  `json:"frames"`
	Records     int64  `json:"records"`
}

// Follower maintains one replication link: dial, handshake, initial
// sync, tail apply — reconnecting with backoff for as long as it lives.
// Every record is applied before its frame is acknowledged, so the
// primary's acked watermark never runs ahead of the follower's table.
type Follower struct {
	cfg FollowerConfig

	mu     sync.Mutex
	conn   net.Conn
	closed bool

	stop chan struct{}
	wg   sync.WaitGroup

	connected  atomic.Bool
	synced     atomic.Bool
	everSynced atomic.Bool
	appliedSeq atomic.Uint64
	appliedTs  atomic.Int64 // primary-clock nanos of the last applied frame
	syncs      atomic.Int64
	resumes    atomic.Int64
	frames     atomic.Int64
	records    atomic.Int64

	// lineage and pos are the resume certificate (run-goroutine only):
	// the lineage of the source whose records the table holds, and per
	// WAL stream the position through which it holds all of them.
	// lineage is set when a sync or a resume completes and cleared when a
	// source answers a hello with a full sync: from then until that
	// sync's 'S' frame the table holds no certified prefix, and a resume
	// presented then would mark a follower synced that never received
	// the durable prefix. A zero lineage requests no resume.
	lineage uint64
	pos     []persist.WALPos

	// Session buffers (run-goroutine only), kept across sessions so that
	// a resync does not allocate its ~400 KiB again: the hello, the
	// connection's reader and ack writer, the frame body and its decoded
	// records. A body grown past bodyKeep by one large frame (an initial
	// sync batch) is dropped, with the records aliasing it, when its
	// session ends.
	hello []byte
	br    *bufio.Reader
	aw    *bufio.Writer
	body  []byte
	recs  []persist.Record
}

// StartFollower validates cfg and starts the link's goroutine.
func StartFollower(cfg FollowerConfig) (*Follower, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	f := &Follower{cfg: cfg, stop: make(chan struct{})}
	f.wg.Add(1)
	go f.run()
	return f, nil
}

// Source returns the primary replication address this link follows.
func (f *Follower) Source() string { return f.cfg.Source }

// Status snapshots the link.
func (f *Follower) Status() FollowerStatus {
	st := FollowerStatus{
		Source:      f.cfg.Source,
		Connected:   f.connected.Load(),
		Synced:      f.synced.Load(),
		AppliedSeq:  f.appliedSeq.Load(),
		StalenessMS: -1,
		Syncs:       f.syncs.Load(),
		Resumes:     f.resumes.Load(),
		Frames:      f.frames.Load(),
		Records:     f.records.Load(),
	}
	if d, ok := f.Staleness(); ok {
		st.StalenessMS = d.Milliseconds()
	}
	return st
}

// Collect emits the link's gauges and counters; labels should already
// carry a source label (obs.WithLabel over the instance set).
func (f *Follower) Collect(e *obs.Expo, labels string) {
	st := f.Status()
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	e.Gauge("cphash_follower_connected", "Whether the replication link is up (1 = yes).", labels, b2f(st.Connected))
	e.Gauge("cphash_follower_synced", "Whether the current connection finished its initial sync (1 = yes).", labels, b2f(st.Synced))
	e.Gauge("cphash_follower_applied_seq", "Highest applied replication seq.", labels, float64(st.AppliedSeq))
	e.Gauge("cphash_follower_staleness_ms", "Applied-state staleness vs the primary clock (-1 before the first sync).", labels, float64(st.StalenessMS))
	e.Counter("cphash_follower_syncs_total", "Initial syncs completed over the link's lifetime.", labels, st.Syncs)
	e.Counter("cphash_follower_frames_total", "Replication frames applied.", labels, st.Frames)
	e.Counter("cphash_follower_records_total", "Replicated records applied.", labels, st.Records)
}

// Staleness reports how far behind the primary's clock the applied state
// is: now minus the primary timestamp of the last applied frame. ok is
// false until the first initial sync has completed; after a disconnect
// the staleness keeps growing, which is exactly what a follower-read
// gate wants to see.
func (f *Follower) Staleness() (time.Duration, bool) {
	if !f.everSynced.Load() {
		return 0, false
	}
	ts := f.appliedTs.Load()
	return time.Duration(f.cfg.Clock().UnixNano() - ts), true
}

// WaitDisconnected polls until the link is down (nothing more will be
// applied: records apply inline before the next read) or the timeout
// elapses, reporting whether it disconnected. Promotion uses it to
// confirm the watermark after a primary death before closing the
// dual-read window.
func (f *Follower) WaitDisconnected(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for f.connected.Load() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// Close stops the link. When it returns, every fully received frame has
// been applied and no further records will be (a partially received
// frame is discarded whole — it was never acknowledged). Idempotent.
func (f *Follower) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		f.wg.Wait()
		return
	}
	f.closed = true
	if f.conn != nil {
		f.conn.Close()
	}
	f.mu.Unlock()
	close(f.stop)
	f.wg.Wait()
}

// run is the link goroutine: dial/resync/apply until closed.
func (f *Follower) run() {
	defer f.wg.Done()
	streak := 0 // consecutive failed sessions
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		var conn net.Conn
		var err error
		if f.cfg.Dial != nil {
			conn, err = f.cfg.Dial("tcp", f.cfg.Source, f.cfg.DialTimeout)
		} else {
			conn, err = net.DialTimeout("tcp", f.cfg.Source, f.cfg.DialTimeout)
		}
		if err == nil {
			syncedBefore := f.syncs.Load() + f.resumes.Load()
			f.mu.Lock()
			if f.closed {
				f.mu.Unlock()
				conn.Close()
				return
			}
			f.conn = conn
			f.mu.Unlock()
			serr := f.session(conn)
			f.connected.Store(false)
			f.synced.Store(false)
			f.mu.Lock()
			f.conn = nil
			f.mu.Unlock()
			conn.Close()
			if serr == nil || isClosing(serr) || f.syncs.Load()+f.resumes.Load() > syncedBefore {
				// Deliberate teardown, or a session that got as far as a
				// completed sync: not a failure streak.
				streak = 0
				continue
			}
		}
		streak++
		select {
		case <-f.stop:
			return
		case <-time.After(f.cfg.backoffFor(streak - 1)):
		}
	}
}

// isClosing reports whether err is the local teardown of our own
// connection (Close racing the session), as opposed to a link failure.
// errors.Is sees through the net.OpError wrapping; matching the error
// string does not survive wrapping or rewording.
func isClosing(err error) bool {
	return errors.Is(err, net.ErrClosed)
}

// bodyKeep is the frame body capacity a follower keeps between sessions.
const bodyKeep = 64 << 10

// session runs one connection: handshake (requesting a resume from the
// held WAL positions when a sync or resume has completed since the last
// full sync began), then apply frames until the connection dies.
func (f *Follower) session(conn net.Conn) error {
	conn.SetWriteDeadline(time.Now().Add(f.cfg.DialTimeout))
	var set protocol.SlotSet
	if f.cfg.Slots != nil {
		set = *f.cfg.Slots
	} else {
		for i := range set {
			set[i] = 0xff
		}
	}
	pos := f.pos
	if f.lineage == 0 {
		pos = nil
	}
	f.hello = appendHello(f.hello[:0], f.cfg.Name, &set, f.lineage, pos)
	if _, err := conn.Write(f.hello); err != nil {
		return err
	}
	conn.SetReadDeadline(time.Now().Add(f.cfg.DialTimeout))
	if f.br == nil {
		f.br = bufio.NewReaderSize(conn, 256<<10)
		f.aw = bufio.NewWriterSize(conn, 4<<10)
	} else {
		f.br.Reset(conn)
		f.aw.Reset(conn)
	}
	if f.body == nil {
		f.body = make([]byte, 0, bodyKeep)
	}
	defer func() {
		if cap(f.body) > bodyKeep {
			f.body, f.recs = nil, nil
		}
	}()
	br, aw := f.br, f.aw
	var rb [replyLen]byte
	if _, err := io.ReadFull(br, rb[:]); err != nil {
		return err
	}
	rep, err := decodeReply(rb[:])
	if err != nil {
		return err
	}
	if rep.resumed && (rep.lineage != f.lineage || rep.streams != len(f.pos)) {
		return fmt.Errorf("replica: source granted a resume this follower did not ask for")
	}
	if !rep.resumed {
		// A full sync follows: the table's old prefix certifies nothing
		// until its 'S' frame, and the old watermark belongs to another
		// Source instance's sequence space.
		f.lineage = 0
		f.pos = make([]persist.WALPos, rep.streams)
		f.appliedSeq.Store(0)
	}
	f.connected.Store(true)

	hdr := make([]byte, frameHeaderLen+posLen*rep.streams)
	fpos := make([]persist.WALPos, rep.streams) // the vector of the frame being read
	ack := make([]byte, ackFixedLen+posLen*rep.streams)
	ack[0] = ackByte
	// No acks are sent until the sync-done (or resume-done) frame has
	// been applied: the first ack a source ever receives therefore
	// certifies the whole initial sync or catch-up, which is what lets
	// its PeerStatus.Synced (and an empty-tail watermark) mean "the
	// follower HAS this data", not "the follower has been mailed this
	// data".
	acking := false
	for {
		conn.SetReadDeadline(time.Now().Add(f.cfg.ReadTimeout))
		if _, err := io.ReadFull(br, hdr); err != nil {
			return err
		}
		typ := hdr[0]
		seq := binary.LittleEndian.Uint64(hdr[1:9])
		ts := int64(binary.LittleEndian.Uint64(hdr[9:17]))
		n := binary.LittleEndian.Uint32(hdr[17:21])
		decodePositions(fpos, hdr[frameHeaderLen:])
		if n > maxFrameLen {
			return fmt.Errorf("replica: frame length %d exceeds limit %d", n, maxFrameLen)
		}
		if cap(f.body) < int(n) {
			f.body = make([]byte, n)
		}
		body := f.body[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			return err
		}
		switch typ {
		case frameData:
			// Every record's CRC is checked before any is applied: a
			// corrupt frame applies nothing and is never acknowledged.
			var err error
			if f.recs, err = persist.DecodeFrames(f.recs[:0], body); err != nil {
				return fmt.Errorf("replica: frame at seq %d: %w", seq, err)
			}
			if err := f.apply(f.recs); err != nil {
				return err
			}
		case frameSyncDone:
			f.lineage = rep.lineage
			f.appliedSeq.Store(seq)
			f.syncs.Add(1)
		case frameResumeDone:
			f.lineage = rep.lineage
			f.appliedSeq.Store(seq)
			f.resumes.Add(1)
		case frameHeartbeat:
			// watermark + timestamp only
		default:
			return fmt.Errorf("replica: unknown frame type %q", typ)
		}
		if typ == frameSyncDone || typ == frameResumeDone {
			f.synced.Store(true)
			f.everSynced.Store(true)
			acking = true
		}
		// The frame is applied: it holds everything through its vector.
		for st, p := range fpos {
			if f.pos[st].Before(p) {
				f.pos[st] = p
			}
		}
		f.frames.Add(1)
		if seq > f.appliedSeq.Load() {
			f.appliedSeq.Store(seq)
		}
		f.appliedTs.Store(ts)
		if !acking {
			continue
		}
		binary.LittleEndian.PutUint64(ack[1:9], seq)
		putPositions(ack[ackFixedLen:], f.pos)
		conn.SetWriteDeadline(time.Now().Add(f.cfg.ReadTimeout))
		if _, err := aw.Write(ack); err != nil {
			return err
		}
		if err := aw.Flush(); err != nil {
			return err
		}
	}
}

// apply replays one 'D' frame's records through the applier, flushing
// at the end so the subsequent ack means "applied", not "received".
// Flush runs exactly once per frame even on an apply error, so appliers
// that acquire per-frame resources on the first Apply (e.g. a lock
// serializing several links over one table client) always settle.
func (f *Follower) apply(recs []persist.Record) (err error) {
	defer func() {
		if ferr := f.cfg.Apply.Flush(); err == nil {
			err = ferr
		}
	}()
	for _, r := range recs {
		if err := f.cfg.Apply.Apply(r.Op, r.Key, r.ExpireAt, r.Ver, r.Value); err != nil {
			return err
		}
	}
	f.records.Add(int64(len(recs)))
	return nil
}
