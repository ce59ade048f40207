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
	"cphash/internal/protocol"
)

// scriptedSource is a fake replication source that accepts one
// connection at a time and hands the test full control of the replies,
// so session-boundary edges (a restart mid-sync) can be scripted
// exactly where a real Source cannot be interrupted deterministically.
type scriptedSource struct {
	t  *testing.T
	ln net.Listener
}

// helloReq is the parsed resume trailer of a follower hello.
type helloReq struct {
	conn          net.Conn
	resumeSession uint64
	resumeSeq     uint64
}

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
	var fixed [len(replMagic) + 1]byte
	if _, err := io.ReadFull(conn, fixed[:]); err != nil {
		s.t.Fatal(err)
	}
	if string(fixed[:len(replMagic)]) != replMagic {
		s.t.Fatalf("bad hello magic %q", fixed[:len(replMagic)])
	}
	rest := make([]byte, int(fixed[len(replMagic)])+protocol.SlotCount/8+helloResumeLen)
	if _, err := io.ReadFull(conn, rest); err != nil {
		s.t.Fatal(err)
	}
	tr := rest[len(rest)-helloResumeLen:]
	return helloReq{
		conn:          conn,
		resumeSession: binary.LittleEndian.Uint64(tr[0:8]),
		resumeSeq:     binary.LittleEndian.Uint64(tr[8:16]),
	}
}

// reply completes the handshake under the given session id (never
// granting a resume — the scripted scenarios deny on purpose).
func (h helloReq) reply(t *testing.T, session uint64) {
	t.Helper()
	out := make([]byte, 0, replyLen)
	out = append(out, replMagic...)
	out = append(out, 0)
	out = binary.LittleEndian.AppendUint64(out, session)
	if _, err := h.conn.Write(out); err != nil {
		t.Fatal(err)
	}
}

// dataFrame builds a 'D' frame at seq carrying recs as WAL frames.
func dataFrame(seq uint64, recs ...persist.Record) []byte {
	frame := make([]byte, frameHeaderLen)
	for _, r := range recs {
		frame = persist.AppendFrame(frame, r)
	}
	putFrameHeader(frame, frameData, seq, time.Now().UnixNano(), len(frame)-frameHeaderLen)
	return frame
}

// syncDone sends the sync-done frame at seq and waits for its ack.
func (h helloReq) syncDone(t *testing.T, seq uint64) {
	t.Helper()
	var hdr [frameHeaderLen]byte
	putFrameHeader(hdr[:], frameSyncDone, seq, time.Now().UnixNano(), 0)
	if _, err := h.conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	h.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var ack [ackLen]byte
	if _, err := io.ReadFull(h.conn, ack[:]); err != nil {
		t.Fatal(err)
	}
	if ack[0] != ackByte || binary.LittleEndian.Uint64(ack[1:9]) != seq {
		t.Fatalf("bad ack %v", ack)
	}
}

// TestNoResumeAfterSessionChangeInterruptedSync pins the resume
// certificate across a source restart: a follower whose full resync
// under the NEW session is cut short before sync-done must NOT present
// (newSession, 0) as a resume on its next reconnect — everSynced was
// earned under the OLD session, and a granted resume here would mark a
// follower synced that never received the new session's durable prefix
// (acked-write loss on a later promotion).
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

	// Connection 1, session 100: a clean first sync at seq 7.
	h := src.accept()
	if h.resumeSession != 0 {
		t.Fatalf("first hello requested resume of session %d", h.resumeSession)
	}
	h.reply(t, 100)
	h.syncDone(t, 7)
	h.conn.Close()

	// Connection 2: the follower presents its completed session — then
	// the "restarted" source answers with session 200 and dies before
	// sync-done, leaving the resync incomplete.
	h = src.accept()
	if h.resumeSession != 100 || h.resumeSeq != 7 {
		t.Fatalf("hello after clean sync = (%d, %d), want (100, 7)", h.resumeSession, h.resumeSeq)
	}
	h.reply(t, 200)
	h.conn.Close()

	// Connection 3: no completed sync under session 200 exists, so no
	// resume may be requested — (200, 0) here is the bogus certificate.
	h = src.accept()
	if h.resumeSession != 0 || h.resumeSeq != 0 {
		t.Fatalf("hello after interrupted resync = (%d, %d), want (0, 0)", h.resumeSession, h.resumeSeq)
	}
	h.reply(t, 200)
	h.syncDone(t, 9)
	h.conn.Close()

	// Connection 4: the sync completed under 200, so resume is back on.
	h = src.accept()
	if h.resumeSession != 200 || h.resumeSeq != 9 {
		t.Fatalf("hello after completed resync = (%d, %d), want (200, 9)", h.resumeSession, h.resumeSeq)
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
	h.syncDone(t, 3)
	bad := dataFrame(5, a, b)
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

	// The follower still stands at seq 3; the resync re-sends both.
	h = src.accept()
	if h.resumeSession != 100 || h.resumeSeq != 3 {
		t.Fatalf("hello after corrupt frame = (%d, %d), want (100, 3)", h.resumeSession, h.resumeSeq)
	}
	h.reply(t, 100)
	if _, err := h.conn.Write(dataFrame(0, a, b)); err != nil {
		t.Fatal(err)
	}
	h.syncDone(t, 5)
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
	if _, err := h.conn.Write(dataFrame(0, big)); err != nil {
		t.Fatal(err)
	}
	h.syncDone(t, 1) // acked, so the big frame was applied
	h.conn.Close()
	h = src.accept() // the first session has ended
	f.Close()        // and the second too; Close waits for both
	h.conn.Close()
	if cap(f.body) != bodyKeep || f.recs != nil {
		t.Fatalf("after a 1 MiB frame the follower keeps a %d B body and %d records, want %d B and none",
			cap(f.body), cap(f.recs), bodyKeep)
	}
}
