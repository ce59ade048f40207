package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"
)

// WAL on-disk format. A stream is a sequence of segment files named
// w<stream>-<seq>.wal; seq is allocated from one pipeline-global counter
// so segments across all streams (and across restarts) sort into a
// single timeline. Each segment is:
//
//	header:  magic "CPWAL002" (8) | stream (4 LE) | seq (8 LE)
//	frames:  length (4 LE) | crc32c(payload) (4 LE) | payload
//	payload: op (1) | key (8 LE) | expireAt ns (8 LE) | version (8 LE) | value bytes
//
// Frames are written strictly append-only and a restart always rolls to
// a fresh segment, so a frame that fails its length or CRC check marks
// the end of that segment's valid prefix (a torn final write), never a
// gap with valid data after it. ops: 1 = set, 2 = delete. CPWAL002 added
// the per-record CAS version; CPWAL001 segments are not readable.
//
// The frame is the only record format in the tree: appenders stage it,
// the persister seals and writes it, the replication tail ships it
// unchanged, and WAL replay and the replication follower both read it
// back through decodeFrame (the follower by way of DecodeFrames).
const (
	walMagic  = "CPWAL002"
	walSuffix = ".wal"

	segHeaderLen   = 8 + 4 + 8
	frameHeaderLen = 4 + 4

	// maxRecordLen rejects absurd frame lengths during replay before
	// allocating (a corrupt length field must not OOM recovery).
	maxRecordLen = 64 << 20
)

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// walName formats a segment file name.
func walName(stream int, seq uint64) string {
	return fmt.Sprintf("w%03d-%016x%s", stream, seq, walSuffix)
}

// parseWalName is walName's inverse for the names it makes; ok is false
// for any other name. It parses with strconv, not fmt: parsing a name
// of ours allocates nothing.
func parseWalName(name string) (stream int, seq uint64, ok bool) {
	const n = len("w000-0000000000000000") // then walSuffix
	if len(name) != n+len(walSuffix) || name[0] != 'w' || name[4] != '-' || name[n:] != walSuffix {
		return 0, 0, false
	}
	st, err := strconv.ParseUint(name[1:4], 10, 16)
	if err != nil {
		return 0, 0, false
	}
	seq, err = strconv.ParseUint(name[5:n], 16, 64)
	return int(st), seq, err == nil
}

// stream is one WAL stream: a persister goroutine draining the change
// rings of its assigned partitions into segment files.
type stream struct {
	p  *Pipeline
	id int

	apps atomic.Pointer[[]*Appender]

	// persister-owned segment state
	f  *os.File
	bw *bufio.Writer

	// observable from other goroutines
	seq     atomic.Uint64
	path    atomicString
	written atomic.Int64 // bytes handed to bw for the current segment
	synced  atomic.Int64 // bytes known fsynced in the current segment

	wake    chan struct{}
	parked  atomic.Bool
	syncReq atomic.Bool
	rollReq chan chan rollAck
}

// rollAck reports the seq of the fresh segment a roll opened.
type rollAck struct {
	newSeq uint64
	err    error
}

// atomicString is a tiny atomic string cell (for the segment path).
type atomicString struct{ v atomic.Pointer[string] }

func (s *atomicString) Store(v string) { s.v.Store(&v) }
func (s *atomicString) Load() string {
	if p := s.v.Load(); p != nil {
		return *p
	}
	return ""
}

func newStream(p *Pipeline, id int) *stream {
	s := &stream{
		p:       p,
		id:      id,
		wake:    make(chan struct{}, 1),
		rollReq: make(chan chan rollAck),
	}
	empty := []*Appender{}
	s.apps.Store(&empty)
	return s
}

func (s *stream) addAppender(a *Appender) {
	old := *s.apps.Load()
	next := make([]*Appender, len(old)+1)
	copy(next, old)
	next[len(old)] = a
	s.apps.Store(&next)
}

// kick wakes the persister if it is parked; called by producers after
// publishing (same store-then-check protocol as core.Table.kick).
func (s *stream) kick() {
	if s.parked.Load() {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// kickAlways queues a wake token unconditionally (commands, shutdown).
func (s *stream) kickAlways() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// openSegment seals the current segment (if any) and opens the next one.
func (s *stream) openSegment() error {
	if s.f != nil {
		if err := s.seal(); err != nil {
			return err
		}
	}
	seq := s.p.nextSeq.Add(1) - 1
	path := filepath.Join(s.p.cfg.Dir, walName(s.id, seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	// Persist the dirent too: without this, a power failure after a
	// group-committed batch in a freshly rolled segment could lose the
	// whole segment (file data fsynced, directory entry not), silently
	// dropping acked writes. Once per roll, so the cost is noise.
	syncDir(s.p.cfg.Dir)
	var hdr [segHeaderLen]byte
	copy(hdr[:8], walMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(s.id))
	binary.LittleEndian.PutUint64(hdr[12:20], seq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("persist: %w", err)
	}
	if s.bw == nil {
		s.bw = bufio.NewWriterSize(f, 256<<10)
	} else {
		s.bw.Reset(f)
	}
	s.f = f
	s.seq.Store(seq)
	s.path.Store(path)
	s.written.Store(segHeaderLen)
	s.synced.Store(segHeaderLen)
	return nil
}

// seal flushes, fsyncs and closes the current segment, advancing every
// durable watermark (a sealed segment is fully durable).
func (s *stream) seal() error {
	if err := s.syncNow(); err != nil {
		return err
	}
	err := s.f.Close()
	s.f = nil
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// drain consumes every staged record from the stream's appenders and
// writes it to the segment, rolling to a fresh segment whenever the
// current one reaches the configured size (the bound holds even when a
// deep ring drains in one sweep). It returns how many records were
// written; the per-record counters are batched into the shared stats
// once per sweep.
func (s *stream) drain() (int, error) {
	n := 0
	bytes := 0
	max := int64(s.p.cfg.MaxSegment)
	// The tail sink is loaded once per sweep: a sink attached mid-sweep
	// may miss this sweep's remaining records, but they land in a segment
	// sealed before any post-attach RollAll barrier, which is exactly the
	// guarantee SetTailSink documents.
	var sink TailSink
	if tsp := s.p.tailSink.Load(); tsp != nil {
		sink = *tsp
	}
	flush := func() {
		if n > 0 {
			s.p.records.Add(int64(n))
			s.p.recordBytes.Add(int64(bytes - n*frameHeaderLen))
		}
	}
	for _, a := range *s.apps.Load() {
		for {
			b, ok := a.pub.Consume()
			if !ok {
				break
			}
			// The appender staged the frame with its header zeroed; the
			// CRC is computed here, off the partition owner's goroutine.
			sealFrame(b)
			w, err := s.bw.Write(b)
			if err == nil && sink != nil {
				sink.TailRecord(b)
			}
			a.recycle(b)
			if err != nil {
				flush()
				return n, fmt.Errorf("persist: wal write: %w", err)
			}
			a.wseq++
			n++
			bytes += w
			if s.written.Add(int64(w)) >= max {
				s.p.rolls.Add(1)
				if err := s.openSegment(); err != nil {
					flush()
					return n, err
				}
			}
		}
	}
	flush()
	return n, nil
}

// syncNow flushes the segment writer and fsyncs the file, then advances
// the durable watermarks and wakes Barrier waiters.
func (s *stream) syncNow() error {
	target := s.written.Load()
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("persist: wal flush: %w", err)
	}
	if s.synced.Load() == target {
		// Nothing new since the last sync — but the watermarks must
		// still be published and waiters woken. A Barrier arms its sync
		// request for records published mid-sweep, after the sweep has
		// already passed their appender; if that request is consumed by
		// a sync that finds an empty fresh segment (written == synced
		// right after a roll), returning silently would leave the
		// Barrier parked in cond.Wait with no broadcast ever coming —
		// it re-arms on every wakeup, and this is that wakeup.
		s.markDurable()
		return nil
	}
	start := time.Now()
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("persist: wal fsync: %w", err)
	}
	s.p.fsyncHist.Record(time.Since(start).Nanoseconds())
	s.p.fsyncs.Add(1)
	s.synced.Store(target)
	s.markDurable()
	return nil
}

// markDurable publishes each appender's written-record count as its
// durable watermark and wakes Barrier waiters.
func (s *stream) markDurable() {
	for _, a := range *s.apps.Load() {
		if a.durable.Load() != a.wseq {
			a.durable.Store(a.wseq)
		}
	}
	s.p.mu.Lock()
	s.p.cond.Broadcast()
	s.p.mu.Unlock()
}

// flushBatch is the post-drain policy step: under SyncAlways the batch
// group-commits (one fsync covers every record drained in it).
func (s *stream) flushBatch() error {
	if s.p.cfg.Policy == SyncAlways {
		return s.syncNow()
	}
	return nil
}

// Idle pacing. An empty persister first poll-sleeps (shallowPoll at a
// time, costing the producers nothing), and only after parkAfterPolls
// consecutive empty polls — ~100ms of real idleness — parks on its wake
// channel. The two-phase design keeps the producers' kick (a futex
// wake) entirely off the steady-state hot path: between pipelined
// request windows the persister is merely sleeping, not parked, so
// appenders never pay to wake it. Busy-spinning instead would fight the
// table's own spinning server goroutines for cores and lose badly on
// oversubscribed hosts.
const (
	shallowPoll    = 500 * time.Microsecond
	parkAfterPolls = 500
)

// run is the persister goroutine.
func (s *stream) run() {
	defer s.p.wg.Done()
	fail := func(err error) {
		// A failing WAL device cannot be hidden: surface loudly and stop
		// persisting. markBroken stops the appenders (the server keeps
		// serving, cache first), releases Barrier waiters, and turns
		// pending/future roll requests into errors instead of leaving
		// them blocked on a goroutine that no longer exists.
		fmt.Fprintf(os.Stderr, "persist: stream %d: %v\n", s.id, err)
		s.p.markBroken()
	}
	// Interval syncs are driven by a deadline check on the write path,
	// not a timer in a select: a stream under sustained traffic never
	// goes idle, and its fsyncs must not wait until it does.
	lastSync := time.Now()
	syncDeadline := func() error {
		if s.p.cfg.Policy != SyncInterval {
			return nil
		}
		if now := time.Now(); now.Sub(lastSync) >= s.p.cfg.SyncInterval {
			lastSync = now
			return s.syncNow()
		}
		return nil
	}
	// One reusable park timer (interval policy only): armed when the
	// persister parks, stopped on wake, so parking allocates nothing.
	var parkTimer *time.Timer
	if s.p.cfg.Policy == SyncInterval {
		parkTimer = time.NewTimer(time.Hour)
		parkTimer.Stop()
		defer parkTimer.Stop()
	}
	idle := 0
	for {
		// Commands are accepted between batches even under continuous
		// traffic: a snapshot roll must not wait for an idle moment.
		select {
		case reply := <-s.rollReq:
			err := s.openSegment()
			reply <- rollAck{newSeq: s.seq.Load(), err: err}
			if err != nil {
				fail(err)
				return
			}
		case <-s.p.killed:
			return
		default:
		}
		n, err := s.drain()
		if err != nil {
			fail(err)
			return
		}
		if n > 0 {
			idle = 0
			if err := s.flushBatch(); err != nil {
				fail(err)
				return
			}
			if err := syncDeadline(); err != nil {
				fail(err)
				return
			}
			// Honor Barrier requests here too: under sustained traffic
			// this loop never goes idle, and a SyncNone/SyncInterval
			// Barrier would otherwise wait for a pause that may never
			// come.
			if s.syncReq.Swap(false) {
				if err := s.syncNow(); err != nil {
					fail(err)
					return
				}
			}
			continue
		}
		if s.syncReq.Swap(false) {
			if err := s.syncNow(); err != nil {
				fail(err)
				return
			}
			continue
		}
		if s.p.stopping.Load() {
			// Rings drained (n == 0), no pending command: final sync and
			// exit. Producers are quiescent by the Close contract.
			if err := s.seal(); err != nil {
				fail(err)
			}
			return
		}
		if idle++; idle < parkAfterPolls {
			if err := syncDeadline(); err != nil {
				fail(err)
				return
			}
			time.Sleep(shallowPoll)
			continue
		}
		idle = 0
		s.parked.Store(true)
		if s.anyWork() {
			s.parked.Store(false)
			continue
		}
		var tickC <-chan time.Time
		if parkTimer != nil {
			parkTimer.Reset(s.p.cfg.SyncInterval)
			tickC = parkTimer.C
		}
		select {
		case <-s.wake:
		case reply := <-s.rollReq:
			err := s.openSegment()
			reply <- rollAck{newSeq: s.seq.Load(), err: err}
			if err != nil {
				s.parked.Store(false)
				fail(err)
				return
			}
		case <-tickC:
			lastSync = time.Now()
			if err := s.syncNow(); err != nil {
				s.parked.Store(false)
				fail(err)
				return
			}
		case <-s.p.killed:
			// Abrupt death: leave buffered bytes unflushed, exactly like
			// a crash.
			s.parked.Store(false)
			return
		}
		s.parked.Store(false)
		if parkTimer != nil {
			parkTimer.Stop()
		}
	}
}

// anyWork reports whether any assigned appender has published records.
func (s *stream) anyWork() bool {
	for _, a := range *s.apps.Load() {
		if a.pub.Len() > 0 {
			return true
		}
	}
	return false
}

// roll asks the persister to seal the current segment and open a fresh
// one, returning the fresh segment's seq. Used by the snapshotter: every
// segment sealed before the roll is covered by the snapshot that
// follows.
func (s *stream) roll() (uint64, error) {
	reply := make(chan rollAck, 1)
	select {
	case s.rollReq <- reply:
	case <-s.p.killed:
		return 0, fmt.Errorf("persist: pipeline killed")
	case <-s.p.broken:
		return 0, fmt.Errorf("persist: stream %d persister failed", s.id)
	}
	select {
	case ack := <-reply:
		return ack.newSeq, ack.err
	case <-s.p.broken:
		// The persister accepted the request and then died on it.
		return 0, fmt.Errorf("persist: stream %d persister failed", s.id)
	}
}

// --- the frame codec ---

// Record is one decoded WAL record; Value aliases the decoded bytes.
type Record struct {
	Op       Op
	Key      uint64
	ExpireAt int64
	Ver      uint64
	Value    []byte
}

// errBadFrame marks bytes that are not one whole, intact frame: shorter
// than its header announces, a length out of range, or a CRC mismatch.
var errBadFrame = errors.New("persist: torn or corrupt frame")

// appendUnsealed appends one record's frame with a zeroed header, which
// sealFrame fills in later.
func appendUnsealed(dst []byte, op Op, key uint64, expireAt int64, ver uint64, value []byte) []byte {
	dst = append(dst, make([]byte, frameHeaderLen)...)
	dst = append(dst, byte(op))
	dst = binary.LittleEndian.AppendUint64(dst, key)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(expireAt))
	dst = binary.LittleEndian.AppendUint64(dst, ver)
	return append(dst, value...)
}

// sealFrame writes the length and CRC of frame's payload into its header.
func sealFrame(frame []byte) {
	payload := frame[frameHeaderLen:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
}

// AppendFrame appends r to dst as one sealed frame.
func AppendFrame(dst []byte, r Record) []byte {
	start := len(dst)
	dst = appendUnsealed(dst, r.Op, r.Key, r.ExpireAt, r.Ver, r.Value)
	sealFrame(dst[start:])
	return dst
}

// FrameKey returns the key of a staged or sealed frame.
func FrameKey(frame []byte) uint64 {
	return binary.LittleEndian.Uint64(frame[frameHeaderLen+1:])
}

// frameLen returns the whole length of the frame whose header starts
// hdr, or false when its length field is out of range.
func frameLen(hdr []byte) (int, bool) {
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n < recHeaderLen || n > maxRecordLen {
		return 0, false
	}
	return frameHeaderLen + int(n), true
}

// decodeFrame decodes the frame at the start of b, returning its record
// and its length.
func decodeFrame(b []byte) (Record, int, error) {
	if len(b) < frameHeaderLen {
		return Record{}, 0, errBadFrame
	}
	n, ok := frameLen(b)
	if !ok || len(b) < n {
		return Record{}, 0, errBadFrame
	}
	p := b[frameHeaderLen:n]
	if crc32.Checksum(p, castagnoli) != binary.LittleEndian.Uint32(b[4:8]) {
		return Record{}, 0, errBadFrame
	}
	return Record{
		Op:       Op(p[0]),
		Key:      binary.LittleEndian.Uint64(p[1:9]),
		ExpireAt: int64(binary.LittleEndian.Uint64(p[9:17])),
		Ver:      binary.LittleEndian.Uint64(p[17:25]),
		Value:    p[recHeaderLen:],
	}, n, nil
}

// DecodeFrames decodes a run of whole frames, appending the records to
// dst. It is all or nothing — one bad frame fails the run — so a caller
// can check every record before it applies any.
func DecodeFrames(dst []Record, b []byte) ([]Record, error) {
	for len(b) > 0 {
		r, n, err := decodeFrame(b)
		if err != nil {
			return dst, err
		}
		dst = append(dst, r)
		b = b[n:]
	}
	return dst, nil
}

// --- replay ---

// newReplayReader returns the read buffer a replay pass shares across its
// files: readSnapshot and replaySegment reset it onto each one.
func newReplayReader() *bufio.Reader { return bufio.NewReaderSize(nil, 256<<10) }

// replaySegment streams the valid frame prefix of one segment into fn,
// reading through br (reset onto the file), and stops cleanly at a torn
// or corrupt frame. It returns the number of applied records and whether
// the segment ended with a tear.
func replaySegment(br *bufio.Reader, path string, fn func(r Record) error) (records int, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	br.Reset(f)
	var hdr [segHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, true, nil // shorter than a header: torn at birth
	}
	if string(hdr[:8]) != walMagic {
		return 0, false, fmt.Errorf("persist: %s: bad segment magic", path)
	}
	frame := make([]byte, frameHeaderLen, 4096)
	for {
		if _, err := io.ReadFull(br, frame[:frameHeaderLen]); err != nil {
			return records, err != io.EOF, nil // EOF = clean end; short = torn
		}
		n, ok := frameLen(frame)
		if !ok {
			return records, true, nil // corrupt length: end of valid prefix
		}
		if cap(frame) < n {
			frame = append(make([]byte, 0, n), frame[:frameHeaderLen]...)
		}
		frame = frame[:n]
		if _, err := io.ReadFull(br, frame[frameHeaderLen:]); err != nil {
			return records, true, nil // torn mid-payload
		}
		r, _, err := decodeFrame(frame)
		if err != nil {
			return records, true, nil // torn or bit-rotted: stop here
		}
		if err := fn(r); err != nil {
			return records, false, err
		}
		records++
	}
}
