package replica

import (
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"cphash/internal/persist"
)

// scriptedSource is a fake replication source that accepts one
// connection at a time and hands the test full control of the replies,
// so session-boundary edges (a restart mid-sync) can be scripted
// exactly where a real Source cannot be interrupted deterministically.
type scriptedSource struct {
	t  *testing.T
	ln net.Listener
}

// helloReq is an accepted connection and its decoded hello.
type helloReq struct {
	conn net.Conn
	hello
}

// scriptStreams is the stream count the scripted source announces.
const scriptStreams = 2

func newScriptedSource(t *testing.T) *scriptedSource {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return &scriptedSource{t: t, ln: ln}
}

// accept takes the next connection and reads its hello.
func (s *scriptedSource) accept() helloReq {
	s.t.Helper()
	conn, err := s.ln.Accept()
	if err != nil {
		s.t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var buf []byte
	for {
		h, _, err := decodeHello(buf)
		if err == nil {
			return helloReq{conn: conn, hello: h}
		}
		if err != errShort {
			s.t.Fatal(err)
		}
		var b [1]byte
		if _, err := io.ReadFull(conn, b[:]); err != nil {
			s.t.Fatal(err)
		}
		buf = append(buf, b[0])
	}
}

// reply completes the handshake under the given lineage (never granting
// a resume — the scripted scenarios deny on purpose).
func (h helloReq) reply(t *testing.T, lineage uint64) {
	t.Helper()
	out := appendReply(nil, reply{lineage: lineage, streams: scriptStreams})
	if _, err := h.conn.Write(out); err != nil {
		t.Fatal(err)
	}
}

// vec is a scripted position vector: stream s at (seg, off+s).
func vec(seg, off uint64) []persist.WALPos {
	v := make([]persist.WALPos, scriptStreams)
	for s := range v {
		v[s] = persist.WALPos{Seg: seg, Off: off + uint64(s)}
	}
	return v
}

// dataFrame builds a 'D' frame at seq and vector pos carrying recs as
// WAL frames.
func dataFrame(seq uint64, pos []persist.WALPos, recs ...persist.Record) []byte {
	frame := make([]byte, frameHeaderLen+posLen*scriptStreams)
	for _, r := range recs {
		frame = persist.AppendFrame(frame, r)
	}
	putFrameHeader(frame, frameData, seq, time.Now().UnixNano(), len(frame)-frameHeaderLen-posLen*scriptStreams, pos)
	return frame
}

// syncDone sends the sync-done frame at seq and vector pos and waits for
// its ack, which must echo both.
func (h helloReq) syncDone(t *testing.T, seq uint64, pos []persist.WALPos) {
	t.Helper()
	hdr := make([]byte, frameHeaderLen+posLen*scriptStreams)
	putFrameHeader(hdr, frameSyncDone, seq, time.Now().UnixNano(), 0, pos)
	if _, err := h.conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	h.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	ack := make([]byte, ackFixedLen+posLen*scriptStreams)
	if _, err := io.ReadFull(h.conn, ack); err != nil {
		t.Fatal(err)
	}
	got := decodePositions(make([]persist.WALPos, scriptStreams), ack[ackFixedLen:])
	if ack[0] != ackByte || binary.LittleEndian.Uint64(ack[1:9]) != seq || !reflect.DeepEqual(got, pos) {
		t.Fatalf("bad ack %v", ack)
	}
}

// TestNoResumeAfterSessionChangeInterruptedSync pins the resume
// certificate across a change of source lineage: a follower whose full
// resync from a source of the NEW lineage is cut short before sync-done
// must NOT present that lineage on its next reconnect — its positions
// were earned under the OLD lineage, and a granted resume here would
// mark a follower synced that never received the new source's durable
// prefix (acked-write loss on a later promotion).
func TestNoResumeAfterSessionChangeInterruptedSync(t *testing.T) {
	src := newScriptedSource(t)
	f, err := StartFollower(FollowerConfig{
		Source:  src.ln.Addr().String(),
		Name:    "f",
		Apply:   nopApplier{},
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Connection 1, lineage 100: a clean first sync at seq 7.
	h := src.accept()
	if h.lineage != 0 || len(h.pos) != 0 {
		t.Fatalf("first hello requested a resume: lineage %d, positions %v", h.lineage, h.pos)
	}
	h.reply(t, 100)
	h.syncDone(t, 7, vec(3, 100))
	h.conn.Close()

	// Connection 2: the follower presents its lineage and positions —
	// then a source of lineage 200 answers with a full sync and dies
	// before sync-done, leaving the resync incomplete.
	h = src.accept()
	if h.lineage != 100 || !reflect.DeepEqual(h.pos, vec(3, 100)) {
		t.Fatalf("hello after clean sync = (%d, %v), want (100, %v)", h.lineage, h.pos, vec(3, 100))
	}
	h.reply(t, 200)
	h.conn.Close()

	// Connection 3: no sync under lineage 200 completed, so no resume may
	// be requested — lineage 200 with the zero positions the cut sync left
	// is the bogus certificate.
	h = src.accept()
	if h.lineage != 0 || len(h.pos) != 0 {
		t.Fatalf("hello after interrupted resync = (%d, %v), want no resume", h.lineage, h.pos)
	}
	h.reply(t, 200)
	h.syncDone(t, 9, vec(5, 40))
	h.conn.Close()

	// Connection 4: the sync completed under 200, so resume is back on.
	h = src.accept()
	if h.lineage != 200 || !reflect.DeepEqual(h.pos, vec(5, 40)) {
		t.Fatalf("hello after completed resync = (%d, %v), want (200, %v)", h.lineage, h.pos, vec(5, 40))
	}
	h.conn.Close()
}

// keyApplier records the keys it is asked to apply.
type keyApplier struct {
	mu   sync.Mutex
	keys []uint64
}

func (a *keyApplier) Apply(op persist.Op, key uint64, expireAt int64, ver uint64, value []byte) error {
	a.mu.Lock()
	a.keys = append(a.keys, key)
	a.mu.Unlock()
	return nil
}

func (a *keyApplier) Flush() error { return nil }

func (a *keyApplier) applied() []uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]uint64(nil), a.keys...)
}

// TestCorruptFrameAppliesNothing pins the end-to-end record checksum: a
// 'D' frame whose second record has one value byte flipped must fail
// before its intact first record is applied. The follower hangs up
// without acking, its watermark stays where it was, and on reconnect a
// resync delivers both records.
func TestCorruptFrameAppliesNothing(t *testing.T) {
	src := newScriptedSource(t)
	app := &keyApplier{}
	f, err := StartFollower(FollowerConfig{
		Source:  src.ln.Addr().String(),
		Name:    "f",
		Apply:   app,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a := persist.Record{Op: persist.OpSet, Key: 1, Ver: 1, Value: []byte("alpha")}
	b := persist.Record{Op: persist.OpSet, Key: 2, Ver: 2, Value: []byte("bravo")}

	h := src.accept()
	h.reply(t, 100)
	h.syncDone(t, 3, vec(2, 60))
	bad := dataFrame(5, vec(2, 200), a, b)
	bad[len(bad)-1] ^= 0x01 // the last value byte of b
	if _, err := h.conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	h.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var got [1]byte
	if _, err := io.ReadFull(h.conn, got[:]); err == nil {
		t.Fatalf("follower answered a corrupt frame with %q", got[0])
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("follower neither acked nor hung up after a corrupt frame")
	}
	h.conn.Close()
	if keys := app.applied(); len(keys) != 0 {
		t.Fatalf("corrupt frame applied keys %v", keys)
	}

	// The follower still stands where the sync left it, not at the corrupt
	// frame's positions; the resync re-sends both.
	h = src.accept()
	if h.lineage != 100 || !reflect.DeepEqual(h.pos, vec(2, 60)) {
		t.Fatalf("hello after corrupt frame = (%d, %v), want (100, %v)", h.lineage, h.pos, vec(2, 60))
	}
	h.reply(t, 100)
	if _, err := h.conn.Write(dataFrame(0, vec(0, 0), a, b)); err != nil {
		t.Fatal(err)
	}
	h.syncDone(t, 5, vec(2, 200))
	h.conn.Close()
	if keys := app.applied(); !reflect.DeepEqual(keys, []uint64{1, 2}) {
		t.Fatalf("after resync applied %v, want [1 2]", keys)
	}
	if st := f.Status(); st.Syncs != 2 || st.Records != 2 {
		t.Fatalf("status after resync = %+v, want 2 syncs and 2 records", st)
	}
}

// TestFollowerDropsOutgrownBody pins what a follower keeps between
// sessions: the first-size frame body, but not one that a single large
// frame (an initial-sync batch) grew, nor the records aliasing it.
func TestFollowerDropsOutgrownBody(t *testing.T) {
	src := newScriptedSource(t)
	f, err := StartFollower(FollowerConfig{
		Source:  src.ln.Addr().String(),
		Name:    "f",
		Apply:   nopApplier{},
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	big := persist.Record{Op: persist.OpSet, Key: 1, Ver: 1, Value: make([]byte, 1<<20)}

	h := src.accept()
	h.reply(t, 100)
	if _, err := h.conn.Write(dataFrame(0, vec(0, 0), big)); err != nil {
		t.Fatal(err)
	}
	h.syncDone(t, 1, vec(1, 20)) // acked, so the big frame was applied
	h.conn.Close()
	h = src.accept() // the first session has ended
	f.Close()        // and the second too; Close waits for both
	h.conn.Close()
	if cap(f.body) != bodyKeep || f.recs != nil {
		t.Fatalf("after a 1 MiB frame the follower keeps a %d B body and %d records, want %d B and none",
			cap(f.body), cap(f.recs), bodyKeep)
	}
}
