package replica_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cphash/internal/cluster"
	"cphash/internal/lockhash"
	"cphash/internal/obs"
	"cphash/internal/partition"
	"cphash/internal/persist"
	"cphash/internal/protocol"
	"cphash/internal/replica"
)

// node is one lockhash table + pipeline + (optional) replication source,
// the smallest stack the replica machinery runs on.
type node struct {
	t     *testing.T
	table *lockhash.Table
	pipe  *persist.Pipeline
	src   *replica.Source
}

func startNode(t *testing.T, srcCfg *replica.SourceConfig) *node {
	t.Helper()
	pipe, err := persist.Open(persist.Config{
		Dir:     t.TempDir(),
		Policy:  persist.SyncNone,
		Streams: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	table, err := lockhash.New(lockhash.Config{
		Partitions:    8,
		CapacityBytes: 8 << 20,
		Sink:          func(i int) partition.ChangeSink { return pipe.Appender(i) },
	})
	if err != nil {
		t.Fatal(err)
	}
	pipe.SetSource(persist.LockHashSource(table))
	if _, err := persist.RestoreLockHash(pipe, table); err != nil {
		t.Fatal(err)
	}
	if err := pipe.Start(); err != nil {
		t.Fatal(err)
	}
	n := &node{t: t, table: table, pipe: pipe}
	if srcCfg != nil {
		cfg := *srcCfg
		cfg.Pipe = pipe
		if cfg.Addr == "" {
			cfg.Addr = "127.0.0.1:0"
		}
		n.src, err = replica.NewSource(cfg)
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		if n.src != nil {
			n.src.Close()
		}
		pipe.Close()
	})
	return n
}

func (n *node) follow(source string, slots *protocol.SlotSet, hb time.Duration) *replica.Follower {
	n.t.Helper()
	f, err := replica.StartFollower(replica.FollowerConfig{
		Source:      source,
		Name:        "follower",
		Slots:       slots,
		Apply:       replica.NewLockHashApplier(n.table),
		Backoff:     10 * time.Millisecond,
		ReadTimeout: 20 * hb,
	})
	if err != nil {
		n.t.Fatal(err)
	}
	n.t.Cleanup(f.Close)
	return f
}

// waitAcked polls until the source's tail watermark is acknowledged by
// every connected peer (all replicated writes applied remotely).
func waitAcked(t *testing.T, src *replica.Source, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		tail := src.Tail()
		ok := false
		for _, ps := range src.Status() {
			if ps.Synced && ps.Acked >= tail {
				ok = true
			} else {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("watermark not acked: tail=%d status=%+v", tail, src.Status())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReplicateLiveTailAndInitialSync(t *testing.T) {
	hb := 10 * time.Millisecond
	primary := startNode(t, &replica.SourceConfig{Heartbeat: hb})

	// Pre-sync state: written before the follower exists, so it arrives
	// via the initial sync (snapshot/segment replay), not the tail.
	for k := uint64(1); k <= 500; k++ {
		primary.table.Put(k, []byte(fmt.Sprintf("pre-%d", k)))
	}
	primary.table.PutTTL(9001, []byte("ttl-entry"), time.Hour)
	primary.table.Put(9002, []byte("doomed"))
	primary.table.Delete(9002)

	follower := startNode(t, nil)
	fl := follower.follow(primary.src.Addr(), nil, hb)

	// Live tail: written while the follower is attached.
	for k := uint64(1001); k <= 1500; k++ {
		primary.table.Put(k, []byte(fmt.Sprintf("live-%d", k)))
	}
	primary.pipe.Barrier()
	waitAcked(t, primary.src, 5*time.Second)

	for k := uint64(1); k <= 500; k++ {
		if v, ok := follower.table.Get(k, nil); !ok || string(v) != fmt.Sprintf("pre-%d", k) {
			t.Fatalf("key %d: got %q ok=%v", k, v, ok)
		}
	}
	for k := uint64(1001); k <= 1500; k++ {
		if v, ok := follower.table.Get(k, nil); !ok || string(v) != fmt.Sprintf("live-%d", k) {
			t.Fatalf("key %d: got %q ok=%v", k, v, ok)
		}
	}
	if _, ok := follower.table.Get(9002, nil); ok {
		t.Fatal("deleted key resurrected on follower")
	}
	if _, ok := follower.table.Get(9001, nil); !ok {
		t.Fatal("TTL entry missing on follower")
	}
	if d, ok := fl.Staleness(); !ok || d > time.Second {
		t.Fatalf("staleness = %v ok=%v, want fresh", d, ok)
	}
	st := fl.Status()
	if !st.Connected || !st.Synced || st.Records == 0 {
		t.Fatalf("unexpected follower status %+v", st)
	}
}

func TestSlotFilteredReplication(t *testing.T) {
	hb := 10 * time.Millisecond
	primary := startNode(t, &replica.SourceConfig{Heartbeat: hb})
	follower := startNode(t, nil)

	// Subscribe to exactly half the continuum.
	var set protocol.SlotSet
	for s := 0; s < protocol.SlotCount/2; s++ {
		set.Add(s)
	}
	follower.follow(primary.src.Addr(), &set, hb)

	rng := rand.New(rand.NewSource(7))
	keys := make([]uint64, 2000)
	for i := range keys {
		keys[i] = rng.Uint64() & uint64(partition.MaxKey)
		primary.table.Put(keys[i], []byte(fmt.Sprintf("v-%d", i)))
	}
	primary.pipe.Barrier()
	waitAcked(t, primary.src, 5*time.Second)

	for i, k := range keys {
		_, ok := follower.table.Get(k, nil)
		want := set.Has(cluster.SlotOf(k))
		if ok != want {
			t.Fatalf("key %d (slot %d): present=%v want=%v", k, cluster.SlotOf(k), ok, want)
		}
		_ = i
	}
}

func TestFollowerReconnectsAndResyncs(t *testing.T) {
	hb := 10 * time.Millisecond
	primary := startNode(t, &replica.SourceConfig{Heartbeat: hb})
	follower := startNode(t, nil)

	for k := uint64(1); k <= 100; k++ {
		primary.table.Put(k, []byte("one"))
	}
	fl := follower.follow(primary.src.Addr(), nil, hb)
	primary.pipe.Barrier()
	waitAcked(t, primary.src, 5*time.Second)

	// Kill the source side; the follower must reconnect once a new
	// source (same pipeline, new listener) appears at the same address.
	addr := primary.src.Addr()
	primary.src.Close()
	if !fl.WaitDisconnected(5 * time.Second) {
		t.Fatal("follower did not notice source death")
	}

	// Writes during the outage only reach the follower via resync.
	for k := uint64(101); k <= 200; k++ {
		primary.table.Put(k, []byte("two"))
	}
	primary.pipe.Barrier()

	src2, err := replica.NewSource(replica.SourceConfig{
		Pipe:      primary.pipe,
		Addr:      addr,
		Heartbeat: hb,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(src2.Close)
	primary.src = src2

	waitAcked(t, primary.src, 10*time.Second)
	for k := uint64(1); k <= 200; k++ {
		if _, ok := follower.table.Get(k, nil); !ok {
			t.Fatalf("key %d missing after resync", k)
		}
	}
	if st := fl.Status(); st.Syncs < 2 {
		t.Fatalf("expected a second initial sync, status %+v", st)
	}
}

func TestBacklogOverrunForcesResync(t *testing.T) {
	hb := 5 * time.Millisecond
	// Tiny backlog: a burst larger than it must disconnect the follower,
	// which then resyncs and converges anyway.
	primary := startNode(t, &replica.SourceConfig{Heartbeat: hb, BacklogRecords: 64})
	follower := startNode(t, nil)
	follower.follow(primary.src.Addr(), nil, hb)
	waitAcked(t, primary.src, 5*time.Second)

	for k := uint64(1); k <= 5000; k++ {
		primary.table.Put(k, []byte(fmt.Sprintf("v-%d", k)))
	}
	primary.pipe.Barrier()
	waitAcked(t, primary.src, 10*time.Second)
	for k := uint64(1); k <= 5000; k++ {
		if _, ok := follower.table.Get(k, nil); !ok {
			t.Fatalf("key %d missing after overrun resync", k)
		}
	}
}

func TestStalenessGrowsWhenDisconnected(t *testing.T) {
	hb := 10 * time.Millisecond
	primary := startNode(t, &replica.SourceConfig{Heartbeat: hb})
	follower := startNode(t, nil)
	fl := follower.follow(primary.src.Addr(), nil, hb)
	primary.table.Put(1, []byte("x"))
	primary.pipe.Barrier()
	waitAcked(t, primary.src, 5*time.Second)

	if _, ok := fl.Staleness(); !ok {
		t.Fatal("staleness not available after sync")
	}
	primary.src.Close()
	fl.WaitDisconnected(5 * time.Second)
	d1, _ := fl.Staleness()
	time.Sleep(50 * time.Millisecond)
	d2, _ := fl.Staleness()
	if d2 <= d1 {
		t.Fatalf("staleness did not grow while disconnected: %v then %v", d1, d2)
	}
}

// blipProxy forwards TCP to a destination and can drop every live
// connection at once — a network blip between a follower and a live
// source, as opposed to a source restart.
type blipProxy struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func newBlipProxy(t *testing.T, dst string) *blipProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &blipProxy{ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", dst)
			if err != nil {
				c.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, c, up)
			p.mu.Unlock()
			go func() { io.Copy(up, c); up.Close(); c.Close() }()
			go func() { io.Copy(c, up); c.Close(); up.Close() }()
		}
	}()
	t.Cleanup(func() { ln.Close(); p.drop() })
	return p
}

func (p *blipProxy) addr() string { return p.ln.Addr().String() }

func (p *blipProxy) drop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

// TestSessionResumeWarmReconnect proves a reconnect to the SAME source
// is warm: the session resumes at the follower's applied watermark with
// zero sync entries re-streamed, where a source restart (different
// session id) still forces a full resync.
func TestSessionResumeWarmReconnect(t *testing.T) {
	hb := 10 * time.Millisecond
	primary := startNode(t, &replica.SourceConfig{Heartbeat: hb})

	// Synced state established before the follower attaches, so the
	// record count of the initial sync is exact.
	for k := uint64(1); k <= 300; k++ {
		primary.table.Put(k, []byte(fmt.Sprintf("v-%d", k)))
	}
	primary.pipe.Barrier()

	proxy := newBlipProxy(t, primary.src.Addr())
	follower := startNode(t, nil)
	fl := follower.follow(proxy.addr(), nil, hb)
	waitAcked(t, primary.src, 5*time.Second)

	st := fl.Status()
	if st.Syncs != 1 || st.Resumes != 0 || st.Records != 300 {
		t.Fatalf("after initial sync: %+v", st)
	}

	// Blip the link. The follower redials immediately (a session that
	// completed its sync is not a failure streak) and must resume, not
	// resync.
	proxy.drop()
	deadline := time.Now().Add(5 * time.Second)
	for fl.Status().Resumes == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no resume after blip: %+v", fl.Status())
		}
		time.Sleep(time.Millisecond)
	}
	for k := uint64(301); k <= 350; k++ {
		primary.table.Put(k, []byte(fmt.Sprintf("v-%d", k)))
	}
	primary.pipe.Barrier()
	waitAcked(t, primary.src, 10*time.Second)

	for k := uint64(1); k <= 350; k++ {
		if _, ok := follower.table.Get(k, nil); !ok {
			t.Fatalf("key %d missing after resume", k)
		}
	}
	st = fl.Status()
	if st.Syncs != 1 || st.Resumes != 1 {
		t.Fatalf("expected a warm resume, got %+v", st)
	}
	// Zero entries re-streamed: only the 50 blip-interval records moved.
	if st.Records != 350 {
		t.Fatalf("records = %d, want 350 (300 synced once + 50 live)", st.Records)
	}
}

// TestPeerWatermarkRetainedAfterDisconnect pins the detector's input
// signal: a dropped peer stays in Peers() as up=false with its last
// acked watermark (so lag grows against the advancing tail), scrapes as
// cphash_replica_peer_up 0, and disappears only on ForgetPeer.
func TestPeerWatermarkRetainedAfterDisconnect(t *testing.T) {
	hb := 10 * time.Millisecond
	primary := startNode(t, &replica.SourceConfig{Heartbeat: hb})
	follower := startNode(t, nil)
	fl := follower.follow(primary.src.Addr(), nil, hb)

	for k := uint64(1); k <= 100; k++ {
		primary.table.Put(k, []byte("x"))
	}
	primary.pipe.Barrier()
	waitAcked(t, primary.src, 5*time.Second)
	tailAtDrop := primary.src.Tail()

	fl.Close()
	deadline := time.Now().Add(5 * time.Second)
	for len(primary.src.Status()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("peer did not unregister")
		}
		time.Sleep(time.Millisecond)
	}

	peers := primary.src.Peers()
	if len(peers) != 1 || peers[0].Name != "follower" {
		t.Fatalf("Peers() after drop = %+v", peers)
	}
	if peers[0].Up {
		t.Fatal("dropped peer reported up")
	}
	if peers[0].Acked != tailAtDrop {
		t.Fatalf("retained acked = %d, want %d", peers[0].Acked, tailAtDrop)
	}

	// The tail advances; the retained watermark stands still, so the
	// scraped lag grows — down-and-falling-behind, not a vanished series.
	for k := uint64(101); k <= 150; k++ {
		primary.table.Put(k, []byte("y"))
	}
	primary.pipe.Barrier()
	var buf bytes.Buffer
	e := obs.NewExpo()
	primary.src.Collect(e, obs.Labels("node", "n1"))
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, `cphash_replica_peer_up{node="n1",peer="follower"} 0`) {
		t.Fatalf("missing peer_up 0 series in scrape:\n%s", text)
	}
	if !strings.Contains(text, `cphash_replica_lag_records{node="n1",peer="follower"} 50`) {
		t.Fatalf("retained lag not 50 in scrape:\n%s", text)
	}

	primary.src.ForgetPeer("follower")
	if got := primary.src.Peers(); len(got) != 0 {
		t.Fatalf("Peers() after ForgetPeer = %+v", got)
	}
}

// gatedApplier parks a follower inside its initial sync: the first Apply
// announces itself on reached, and every Apply waits until release is
// closed.
type gatedApplier struct {
	inner   replica.Applier
	once    sync.Once
	reached chan struct{}
	release chan struct{}
}

func (a *gatedApplier) Apply(op persist.Op, key uint64, expireAt int64, ver uint64, value []byte) error {
	a.once.Do(func() { close(a.reached) })
	<-a.release
	return a.inner.Apply(op, key, expireAt, ver, value)
}

func (a *gatedApplier) Flush() error { return a.inner.Flush() }

// TestCloseDrainsMidSyncPeer pins the failover-edge drain: a graceful
// Close must wait for a live peer still running its initial sync —
// exactly the state a new primary's standbys are in right after a
// promotion — instead of cutting it loose with acked writes stranded on
// the closing node. The follower is held in its first Apply until Close
// is provably under way, so no timer decides what the test sees.
func TestCloseDrainsMidSyncPeer(t *testing.T) {
	hb := 10 * time.Millisecond
	primary := startNode(t, &replica.SourceConfig{Heartbeat: hb})
	const n = 2000
	for k := uint64(1); k <= n; k++ {
		primary.table.Put(k, []byte(fmt.Sprintf("v-%d", k)))
	}
	primary.pipe.Barrier()

	follower := startNode(t, nil)
	gate := &gatedApplier{
		inner:   replica.NewLockHashApplier(follower.table),
		reached: make(chan struct{}),
		release: make(chan struct{}),
	}
	fl, err := replica.StartFollower(replica.FollowerConfig{
		Source:  primary.src.Addr(),
		Name:    "mid-sync",
		Apply:   gate,
		Backoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.Close)
	released := false
	t.Cleanup(func() {
		if !released {
			close(gate.release)
		}
	})

	select {
	case <-gate.reached:
	case <-time.After(10 * time.Second):
		t.Fatal("follower never started its initial sync")
	}
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		primary.src.Close()
	}()
	// Close first detaches the source from the pipeline's tail, so a write
	// that no longer reaches the tail proves Close is under way — while
	// the follower is still parked in its first Apply.
	for k := uint64(n + 1); ; k++ {
		before := primary.src.Tail()
		primary.table.Put(k, []byte("probe"))
		primary.pipe.Barrier()
		if primary.src.Tail() == before {
			break
		}
	}
	select {
	case <-closed:
		t.Fatal("Close returned while its only peer was mid-sync")
	default:
	}
	if st := fl.Status(); st.Syncs != 0 {
		t.Fatalf("follower finished syncing while parked: %+v", st)
	}
	released = true
	close(gate.release)
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return after its peer finished syncing")
	}
	for k := uint64(1); k <= n; k++ {
		if _, ok := follower.table.Get(k, nil); !ok {
			t.Fatalf("key %d lost: Close cut the mid-sync peer", k)
		}
	}
	if st := fl.Status(); st.Syncs != 1 {
		t.Fatalf("sync did not complete before close: %+v", st)
	}
}
