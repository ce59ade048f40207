// Hot-path benchmark and allocation gate: the canonical wire-level
// GET/SET mix (90/10, the memcached-class read-heavy ratio, over fixed
// keys on one pipelined connection) against CPSERVER over loopback TCP,
// measured both for throughput and for allocations per operation. The
// companion test asserts the allocation ceiling so a regression in the
// zero-allocation request path fails `go test` rather than silently
// eroding the batching advantage the paper is about — and it asserts it
// bare, with the durability pipeline (sync=interval), with two live
// followers, with chaos wrappers armed but inactive, and with the
// memcached text listener up. Throughput and latency of the served
// request path are priced by the benchmark ledger (go run -C bench .).
package cphash

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"cphash/internal/chaos"
	"cphash/internal/core"
	"cphash/internal/kvserver"
	"cphash/internal/lockhash"
	"cphash/internal/partition"
	"cphash/internal/persist"
	"cphash/internal/protocol"
	"cphash/internal/replica"
)

const (
	// hotPathKeys is the working-set size (fixed 60-bit keys 0..hotPathKeys-1).
	hotPathKeys = 1 << 14
	// hotPathValueSize is the payload size of every SET.
	hotPathValueSize = 64
	// hotPathWindow is the pipeline window: requests written per flush.
	hotPathWindow = 128
)

// hotPathPreload stores every key once (values all zero) and flushes, so
// the mix runs against a warm working set.
func hotPathPreload(bw *bufio.Writer, val []byte) error {
	for k := uint64(0); k < hotPathKeys; k++ {
		if err := protocol.WriteRequest(bw, protocol.Request{Op: protocol.OpInsert, Key: k, Value: val}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// hotPathMix drives ops operations of the 90/10 GET/SET mix in pipelined
// windows of hotPathWindow requests over one connection's codecs: each
// window writes its requests, flushes once, and drains the GET responses
// in order into dst. The returned dst is the recycled response buffer;
// the loop body performs no heap allocation, so whole-process allocation
// deltas measured around it isolate the server stack under test.
func hotPathMix(bw *bufio.Writer, br *bufio.Reader, ops int, val, dst []byte) ([]byte, error) {
	gets := 0
	for i := 0; i < ops; i++ {
		key := partition.Mix64(1+uint64(i)) % hotPathKeys
		if i%10 == 9 {
			if err := protocol.WriteRequest(bw, protocol.Request{Op: protocol.OpInsert, Key: key, Value: val}); err != nil {
				return dst, err
			}
		} else {
			if err := protocol.WriteRequest(bw, protocol.Request{Op: protocol.OpLookup, Key: key}); err != nil {
				return dst, err
			}
			gets++
		}
		if (i+1)%hotPathWindow == 0 || i == ops-1 {
			if err := bw.Flush(); err != nil {
				return dst, err
			}
			for ; gets > 0; gets-- {
				var err error
				if dst, _, err = protocol.ReadLookupResponse(br, dst[:0]); err != nil {
					return dst, err
				}
			}
		}
	}
	return dst, nil
}

// hotPathConn bundles one dialed connection's codecs, plus the
// replication source when the server was started with one and the
// memcached text listener's address when one was enabled.
type hotPathConn struct {
	bw     *bufio.Writer
	br     *bufio.Reader
	src    *replica.Source
	mcAddr string
}

// startHotPathServer boots a CPSERVER (CPHASH backend) sized for the
// hot-path working set and dials one connection to it. With persistDir
// non-empty the table is wired to a durability pipeline (sync=interval)
// rooted there. With followers > 0, a replication source streams the
// pipeline's tail to that many in-process followers, each applying into
// its own table — the full primary-side replication overhead (backlog
// append, per-peer frame copies, ack reads) plus the followers' CRC
// checks and apply loops, all inside this process so the allocation gate sees every
// side of a depth-(followers+1) chain. With a chaos director the server
// listener and the client connection both run through the fault-injection
// wrappers (the -chaos deployment shape), which must stay free when no
// rule matches.
func startHotPathServer(tb testing.TB, persistDir string, followers int, dir *chaos.Director, withMctext bool) (*hotPathConn, func()) {
	tb.Helper()
	var pipe *persist.Pipeline
	var sink func(int) partition.ChangeSink
	if persistDir != "" {
		var err error
		pipe, err = persist.Open(persist.Config{Dir: persistDir, Policy: persist.SyncInterval})
		if err != nil {
			tb.Fatal(err)
		}
		sink = func(p int) partition.ChangeSink { return pipe.Appender(p) }
	}
	table := core.MustNew(core.Config{
		Partitions:    2,
		CapacityBytes: partition.CapacityForValues(2*hotPathKeys, hotPathValueSize),
		MaxClients:    1,
		Seed:          1,
		Sink:          sink,
	})
	if pipe != nil {
		pipe.SetSource(persist.CoreSource(table))
		if err := pipe.Start(); err != nil {
			table.Close()
			tb.Fatal(err)
		}
	}
	var src *replica.Source
	var fls []*replica.Follower
	if followers > 0 {
		if pipe == nil {
			tb.Fatal("followers require a persist dir")
		}
		var err error
		// A backlog small enough for the warmup to touch every slot:
		// the tail ring reuses each slot's buffer in place, so the
		// steady state is allocation-free only once all slots have been
		// written at the workload's record size.
		src, err = replica.NewSource(replica.SourceConfig{Pipe: pipe, Addr: "127.0.0.1:0", BacklogRecords: 512})
		if err != nil {
			table.Close()
			tb.Fatal(err)
		}
		for i := 0; i < followers; i++ {
			ftable := lockhash.MustNew(lockhash.Config{
				Partitions:    2,
				CapacityBytes: partition.CapacityForValues(2*hotPathKeys, hotPathValueSize),
			})
			fl, err := replica.StartFollower(replica.FollowerConfig{
				Source: src.Addr(),
				Name:   fmt.Sprintf("alloc-gate-%d", i),
				Apply:  replica.NewLockHashApplier(ftable),
			})
			if err != nil {
				src.Close()
				table.Close()
				tb.Fatal(err)
			}
			fls = append(fls, fl)
		}
	}
	var listen func(network, addr string) (net.Listener, error)
	if dir != nil {
		listen = dir.Listen("")
	}
	textAddr := ""
	if withMctext {
		textAddr = "127.0.0.1:0"
	}
	srv, err := kvserver.Serve(kvserver.Config{
		Addr:        "127.0.0.1:0",
		TextAddr:    textAddr,
		Workers:     1,
		NewBackend:  kvserver.NewCPHashBackend(table),
		Persist:     pipe,
		Replication: src,
		Listen:      listen,
	})
	if err != nil {
		table.Close()
		tb.Fatal(err)
	}
	var (
		bw     *bufio.Writer
		br     *bufio.Reader
		closer io.Closer
	)
	if dir != nil {
		conn, derr := dir.Dialer("bench")("tcp", srv.Addr(), 2*time.Second)
		if derr != nil {
			srv.Close()
			table.Close()
			tb.Fatal(derr)
		}
		bw = bufio.NewWriterSize(conn, kvserver.DefaultBufferSize)
		br = bufio.NewReaderSize(conn, kvserver.DefaultBufferSize)
		closer = conn
	} else if bw, br, closer, err = kvserver.Dial(srv.Addr()); err != nil {
		srv.Close()
		table.Close()
		tb.Fatal(err)
	}
	pw := &hotPathConn{bw: bw, br: br, src: src, mcAddr: srv.TextAddr()}
	return pw, func() {
		closer.Close()
		for _, fl := range fls {
			fl.Close()
		}
		srv.Close() // flushes and closes replication + pipeline, if any
		table.Close()
	}
}

// waitReplicated blocks until EVERY one of the expected followers behind
// src has completed its initial sync and acknowledged the current tail,
// so the measured window starts from replication steady state (pools
// warm, backlog slots sized) on all links — not just whichever peer the
// status map happened to list last.
func waitReplicated(tb testing.TB, src *replica.Source, followers int) {
	tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		tail := src.Tail()
		peers := src.Status()
		ok := len(peers) == followers
		for _, ps := range peers {
			if !ps.Synced || ps.Acked < tail {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			tb.Fatalf("followers did not reach the tail watermark: %+v", peers)
		}
		time.Sleep(time.Millisecond)
	}
}

// hotPathWarmup preloads the working set and runs enough of the mix that
// every pooled buffer (connection arenas, worker batch slices, op free
// lists, response buffers, WAL record pools) reaches steady state.
func hotPathWarmup(tb testing.TB, pw *hotPathConn, val, dst []byte) []byte {
	tb.Helper()
	if err := hotPathPreload(pw.bw, val); err != nil {
		tb.Fatal(err)
	}
	dst, err := hotPathMix(pw.bw, pw.br, 4096, val, dst)
	if err != nil {
		tb.Fatal(err)
	}
	if pw.src != nil {
		// Enough extra SET traffic (~10% of the mix) to cycle the whole
		// replication backlog, growing its byte ring to the mix's frames.
		dst, err = hotPathMix(pw.bw, pw.br, 8192, val, dst)
		if err != nil {
			tb.Fatal(err)
		}
	}
	return dst
}

// BenchmarkHotPath_WireGetSet measures the full TCP round trip of the
// steady-state 90/10 GET/SET mix. The embedded ReportAllocs shows
// allocs/op; the steady-state server path is expected to be
// allocation-free.
func BenchmarkHotPath_WireGetSet(b *testing.B) {
	pw, stop := startHotPathServer(b, "", 0, nil, false)
	defer stop()
	val := make([]byte, hotPathValueSize)
	dst := make([]byte, 0, 2*hotPathValueSize)
	dst = hotPathWarmup(b, pw, val, dst)
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := hotPathMix(pw.bw, pw.br, b.N, val, dst); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHotPath_WireGetSetPersist is the same round trip with the
// durability pipeline on (sync=interval), so the WAL overhead shows up
// in the benchmark trajectory next to the bare number.
func BenchmarkHotPath_WireGetSetPersist(b *testing.B) {
	pw, stop := startHotPathServer(b, b.TempDir(), 0, nil, false)
	defer stop()
	val := make([]byte, hotPathValueSize)
	dst := make([]byte, 0, 2*hotPathValueSize)
	dst = hotPathWarmup(b, pw, val, dst)
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := hotPathMix(pw.bw, pw.br, b.N, val, dst); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHotPath_WireGetSetReplicated adds two live in-process
// followers on top of the persisted configuration (a -replicas 3 chain's
// primary side), so the replication overhead — backlog staging on the
// persister, per-peer frame copies and socket writes on the senders,
// CRC checks and applies on the followers — shows up in the
// benchmark trajectory next to the bare and persist numbers.
func BenchmarkHotPath_WireGetSetReplicated(b *testing.B) {
	pw, stop := startHotPathServer(b, b.TempDir(), 2, nil, false)
	defer stop()
	val := make([]byte, hotPathValueSize)
	dst := make([]byte, 0, 2*hotPathValueSize)
	dst = hotPathWarmup(b, pw, val, dst)
	waitReplicated(b, pw.src, 2)
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := hotPathMix(pw.bw, pw.br, b.N, val, dst); err != nil {
		b.Fatal(err)
	}
}

// TestHotPathAllocCeiling is the allocation gate on the wire hot path:
// it runs the steady-state mix and fails if the whole process (client
// loop + server stack) exceeds the ceiling — once bare, once with the
// durability pipeline enabled at sync=interval (change records stage
// into pooled, recycled buffers, so persistence must not reintroduce
// per-op allocation). The client loop is allocation-free by
// construction, so the budget effectively bounds the server's per-op
// allocations. Guarded by testing.Short so the race-enabled CI test run
// — where the race runtime itself allocates — skips it; the dedicated
// bench smoke job runs it unraced.
func TestHotPathAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation ceiling is measured by the bench smoke job, not under -short/-race")
	}
	run := func(t *testing.T, persistDir string, followers int, dir *chaos.Director, withMctext bool) {
		pw, stop := startHotPathServer(t, persistDir, followers, dir, withMctext)
		defer stop()
		val := make([]byte, hotPathValueSize)
		dst := make([]byte, 0, 2*hotPathValueSize)
		dst = hotPathWarmup(t, pw, val, dst)
		if followers > 0 {
			waitReplicated(t, pw.src, followers)
		}
		if pw.mcAddr != "" {
			// A warmed text connection stays parked on the server
			// during the measured window: the text listener being
			// enabled (and having served traffic) must not tax the
			// native path.
			mcc, closeMC := dialMctextRaw(t, pw.mcAddr)
			defer closeMC()
			if err := mcc.mix(2000); err != nil {
				t.Fatal(err)
			}
		}

		const ops = 50000
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := hotPathMix(pw.bw, pw.br, ops, val, dst); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perOp := float64(after.Mallocs-before.Mallocs) / float64(ops)
		t.Logf("hot path: %.4f allocs/op (%d allocations over %d ops)", perOp, after.Mallocs-before.Mallocs, ops)
		if pw.src != nil {
			// A follower that falls off the backlog catches up from the
			// WAL; a resync (a sync beyond each follower's first) here
			// would be a bug, not load.
			st := pw.src.Stats()
			t.Logf("replication: %d resyncs, %d catch-ups", st.Syncs-int64(followers), st.CatchUps)
		}
		// The steady-state path is allocation-free; the ceiling leaves
		// room only for incidental runtime activity (timers, GC
		// bookkeeping).
		if perOp > 0.05 {
			t.Fatalf("hot path allocates %.4f allocs/op, ceiling 0.05 — the zero-allocation request path regressed", perOp)
		}
	}
	t.Run("plain", func(t *testing.T) { run(t, "", 0, nil, false) })
	t.Run("persist", func(t *testing.T) { run(t, t.TempDir(), 0, nil, false) })
	// With two connected followers the whole depth-3 replication stack
	// runs in this process, so the same ceiling also bounds the source's
	// per-peer streaming side and both followers' apply loops —
	// replication must not reintroduce per-op allocation on or next to
	// the hot path.
	t.Run("replicated", func(t *testing.T) { run(t, t.TempDir(), 2, nil, false) })
	// The -chaos deployment shape: server listener and client connection
	// both run through chaos wrappers with a director armed and a rule
	// installed — just not one that matches this traffic. The wrappers'
	// fast path (one generation load per I/O against a cached, empty rule
	// slice) must fit inside the same ceiling, or "chaos compiled in but
	// inactive" would tax every production hot path.
	t.Run("chaos-inactive", func(t *testing.T) {
		d := chaos.New(chaos.Config{Seed: 1})
		if err := d.SetRule(chaos.Rule{
			Name:    "elsewhere",
			Src:     "some-other-node",
			Dst:     "not-this-listener",
			Latency: time.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
		run(t, "", 0, d, false)
	})
	// The -memcached deployment shape: the text listener is up with a
	// warmed text connection parked on it while the native mix runs.
	t.Run("mctext-enabled", func(t *testing.T) { run(t, "", 0, nil, true) })
}

// mctextRawConn is one raw memcached text connection with prebuilt
// request bytes and exact-size reply buffers, so the client side of the
// text-path allocation gate is itself allocation-free.
type mctextRawConn struct {
	c       net.Conn
	br      *bufio.Reader
	getReq  []byte
	setReq  []byte
	getResp []byte
	setResp []byte
}

var (
	mctextStored      = []byte("STORED\r\n")
	mctextValuePrefix = []byte("VALUE mckey 0 32\r\n")
)

func dialMctextRaw(tb testing.TB, addr string) (*mctextRawConn, func()) {
	tb.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		tb.Fatal(err)
	}
	val := bytes.Repeat([]byte{'v'}, 32)
	m := &mctextRawConn{
		c:       conn,
		br:      bufio.NewReaderSize(conn, 4096),
		getReq:  []byte("get mckey\r\n"),
		setReq:  append(append([]byte("set mckey 0 0 32\r\n"), val...), '\r', '\n'),
		getResp: make([]byte, len(mctextValuePrefix)+32+2+len("END\r\n")),
		setResp: make([]byte, len(mctextStored)),
	}
	// Seed the key so every later get hits.
	if _, err := conn.Write(m.setReq); err != nil {
		conn.Close()
		tb.Fatal(err)
	}
	if _, err := io.ReadFull(m.br, m.setResp); err != nil || !bytes.Equal(m.setResp, mctextStored) {
		conn.Close()
		tb.Fatalf("seed set: %q, %v", m.setResp, err)
	}
	return m, func() { conn.Close() }
}

// mix runs n text-protocol round trips at the canonical 90/10 get/set
// ratio against the seeded key.
func (m *mctextRawConn) mix(n int) error {
	for i := 0; i < n; i++ {
		if i%10 == 9 {
			if _, err := m.c.Write(m.setReq); err != nil {
				return err
			}
			if _, err := io.ReadFull(m.br, m.setResp); err != nil {
				return err
			}
			if !bytes.Equal(m.setResp, mctextStored) {
				return fmt.Errorf("set reply %q", m.setResp)
			}
		} else {
			if _, err := m.c.Write(m.getReq); err != nil {
				return err
			}
			if _, err := io.ReadFull(m.br, m.getResp); err != nil {
				return err
			}
			if !bytes.HasPrefix(m.getResp, mctextValuePrefix) {
				return fmt.Errorf("get reply %q", m.getResp)
			}
		}
	}
	return nil
}

// TestMctextAllocCeiling is the text protocol's own allocation gate:
// steady-state get/set traffic through the server's text codec (tokenise
// into the connection's arenas → worker batch → render into the
// connection's writer) must stay within the same per-op budget as the
// native path.
func TestMctextAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation ceiling is measured by the bench smoke job, not under -short/-race")
	}
	pw, stop := startHotPathServer(t, "", 0, nil, true)
	defer stop()
	mcc, closeMC := dialMctextRaw(t, pw.mcAddr)
	defer closeMC()
	if err := mcc.mix(4000); err != nil { // warm every recycled buffer
		t.Fatal(err)
	}

	const ops = 20000
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := mcc.mix(ops); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.Mallocs-before.Mallocs) / float64(ops)
	t.Logf("mctext path: %.4f allocs/op (%d allocations over %d ops)", perOp, after.Mallocs-before.Mallocs, ops)
	if perOp > 0.05 {
		t.Fatalf("mctext path allocates %.4f allocs/op, ceiling 0.05 — the recycled-arena discipline regressed", perOp)
	}
}
