package replica_test

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"cphash/internal/persist"
	"cphash/internal/replica"
)

// smallBufListen is a SourceConfig.Listen whose connections have a fixed
// 128 KiB send buffer, and smallBufDial a FollowerConfig.Dial with a
// fixed 128 KiB receive buffer: a follower whose applier stalls then
// holds the source back within well under a MiB, so a burst of a few MiB
// provably pushes the source off its backlog instead of parking in
// autotuned loopback socket buffers. (Much smaller buffers, under the
// loopback segment size, make the link crawl on delayed acks.)
const sockBuf = 128 << 10

func smallBufListen(network, addr string) (net.Listener, error) {
	ln, err := net.Listen(network, addr)
	return smallBufListener{ln}, err
}

type smallBufListener struct{ net.Listener }

func (l smallBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetWriteBuffer(sockBuf)
	}
	return c, err
}

func smallBufDial(network, addr string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout(network, addr, timeout)
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetReadBuffer(sockBuf)
	}
	return c, err
}

// followWith starts a follower applying through ap over small buffers.
func followWith(t *testing.T, addr string, ap replica.Applier, hb time.Duration) *replica.Follower {
	t.Helper()
	fl, err := replica.StartFollower(replica.FollowerConfig{
		Source:      addr,
		Name:        "follower",
		Apply:       ap,
		Dial:        smallBufDial,
		Backoff:     10 * time.Millisecond,
		ReadTimeout: 20 * hb,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.Close)
	return fl
}

// waitSyncs polls until the follower has completed n syncs.
func waitSyncs(t *testing.T, fl *replica.Follower, n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); fl.Status().Syncs < n; {
		if time.Now().After(deadline) {
			t.Fatalf("follower never reached %d syncs: %+v", n, fl.Status())
		}
		time.Sleep(time.Millisecond)
	}
}

// logApplier records every applied set's write number (its value's
// first 8 bytes), in order.
type logApplier struct {
	mu   sync.Mutex
	vals []uint64
}

func (a *logApplier) Apply(op persist.Op, key uint64, exp int64, ver uint64, val []byte) error {
	a.mu.Lock()
	a.vals = append(a.vals, binary.LittleEndian.Uint64(val))
	a.mu.Unlock()
	return nil
}

func (a *logApplier) Flush() error { return nil }

// TestNoRecordBetweenFileAndRing holds a follower's applier while a
// primary with a 16-record backlog and an interval-synced WAL (frames
// sit in each stream's segment writer, unflushed, for the whole run)
// writes far past the backlog, then releases it. The source must hand
// the follower from the backlog to the segment files and back without
// losing a record in the unflushed tail or sending one twice: every
// write arrives exactly once, and each stream's writes in the order they
// were made.
func TestNoRecordBetweenFileAndRing(t *testing.T) {
	hb := 5 * time.Millisecond
	primary := startNodeIn(t,
		persist.Config{Dir: t.TempDir(), Policy: persist.SyncInterval, SyncInterval: time.Hour, Streams: 2}, 2,
		&replica.SourceConfig{Heartbeat: hb, BacklogRecords: 16, Listen: smallBufListen})
	log := &logApplier{}
	ap := &stallApplier{inner: log, entered: make(chan struct{}), release: make(chan struct{})}
	fl := followWith(t, primary.src.Addr(), ap, hb)
	waitAcked(t, primary.src, 5*time.Second)

	const keys, writes = 64, 20000
	val := make([]byte, 128)
	put := func(w uint64) {
		binary.LittleEndian.PutUint64(val, w)
		primary.table.Put(w%keys, val)
	}
	ap.stall.Store(true)
	put(1)
	<-ap.entered
	for w := uint64(2); w <= writes; w++ {
		put(w)
	}
	// No Barrier: under this policy that would flush the writers, and
	// the unflushed tail is the point.
	for deadline := time.Now().Add(10 * time.Second); primary.src.Tail() < writes; {
		if time.Now().After(deadline) {
			t.Fatalf("tail %d, want %d", primary.src.Tail(), writes)
		}
		time.Sleep(time.Millisecond)
	}
	close(ap.release)
	waitAcked(t, primary.src, 10*time.Second)

	log.mu.Lock()
	vals := append([]uint64(nil), log.vals...)
	log.mu.Unlock()
	seen := make(map[uint64]bool, writes)
	var last [2]uint64
	for _, w := range vals {
		if seen[w] {
			t.Fatalf("write %d applied twice", w)
		}
		seen[w] = true
		// Two partitions over two streams: partition i is stream i, so
		// a stream's records are its partition's, in write order.
		if s := primary.table.PartitionOf(w % keys); w < last[s] {
			t.Fatalf("stream %d applied write %d after write %d", s, w, last[s])
		} else {
			last[s] = w
		}
	}
	for w := uint64(1); w <= writes; w++ {
		if !seen[w] {
			t.Fatalf("write %d never applied (%d of %d arrived)", w, len(seen), writes)
		}
	}
	if st := fl.Status(); st.Syncs != 1 || st.Resumes != 0 {
		t.Fatalf("want no resync and no reconnect, status %+v", st)
	}
	if st := primary.src.Stats(); st.CatchUps == 0 {
		t.Fatalf("the follower never fell off the backlog: %+v", st)
	}
}
