package kvserver

import (
	"testing"
	"time"

	"cphash/internal/core"
	"cphash/internal/partition"
	"cphash/internal/persist"
	"cphash/internal/protocol"
)

// persistServer boots a CPSERVER whose CPHASH table is wired to a fresh
// durability pipeline on dir, restoring any prior state first.
func persistServer(t *testing.T, dir string, policy persist.SyncPolicy) (*Server, *core.Table, *persist.Pipeline, persist.RecoverStats) {
	t.Helper()
	pipe, err := persist.Open(persist.Config{
		Dir:    dir,
		Policy: policy,
		// Long enough that interval syncs never fire during a test: any
		// durability observed comes from shutdown or group commit.
		SyncInterval: time.Hour,
		Streams:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	table := core.MustNew(core.Config{
		Partitions:    2,
		CapacityBytes: 4 << 20,
		MaxClients:    1,
		Seed:          1,
		Sink:          func(p int) partition.ChangeSink { return pipe.Appender(p) },
	})
	pipe.SetSource(persist.CoreSource(table))
	rst, err := persist.RestoreCore(pipe, table, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.Start(); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(Config{
		Addr:       "127.0.0.1:0",
		TextAddr:   "127.0.0.1:0",
		Workers:    1,
		NewBackend: NewCPHashBackend(table),
		Persist:    pipe,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv, table, pipe, rst
}

// ackWrites SETs keys [0,n) and then GETs key 0 on the same connection:
// per-connection FIFO means the returned response acknowledges that
// every SET before it was processed (and, under sync=always, committed).
func ackWrites(t *testing.T, addr string, n int, val []byte) {
	t.Helper()
	bw, br, closer, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	for k := 0; k < n; k++ {
		if err := protocol.WriteRequest(bw, protocol.Request{Op: protocol.OpInsert, Key: uint64(k), Value: val}); err != nil {
			t.Fatal(err)
		}
	}
	if err := protocol.WriteRequest(bw, protocol.Request{Op: protocol.OpLookup, Key: 0}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, found, err := protocol.ReadLookupResponse(br, nil); err != nil || !found {
		t.Fatalf("ack lookup: found=%v err=%v", found, err)
	}
}

// recoverKeys replays dir's durable state into a plain map.
func recoverKeys(t *testing.T, dir string) map[uint64]string {
	t.Helper()
	p, err := persist.Open(persist.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint64]string{}
	if _, err := p.Recover(func(op persist.Op, key uint64, exp int64, ver uint64, v []byte) error {
		if op == persist.OpSet {
			got[key] = string(v)
		} else {
			delete(got, key)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestGracefulShutdownFlushesWAL is the shutdown-drain regression test:
// writes acknowledged only at the cache layer (sync=interval, interval
// never elapsing) must still be on disk after a graceful Close, because
// Close quiesces the worker queues and flushes the pipeline before
// returning. Before the fix the process could exit with the whole WAL
// tail sitting in user-space buffers.
func TestGracefulShutdownFlushesWAL(t *testing.T) {
	dir := t.TempDir()
	srv, table, _, _ := persistServer(t, dir, persist.SyncInterval)
	const n = 500
	val := []byte("shutdown-flush-regression")
	ackWrites(t, srv.Addr(), n, val)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	table.Close()

	got := recoverKeys(t, dir)
	for k := 0; k < n; k++ {
		if got[uint64(k)] != string(val) {
			t.Fatalf("key %d lost by graceful shutdown (have %d keys)", k, len(got))
		}
	}
}

// TestGroupCommitSurvivesCrash: under sync=always a response reaches the
// client only after the batch's change records are fsynced, so even an
// abrupt kill (no drain, no flush) right after the ack loses nothing.
func TestGroupCommitSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	srv, table, pipe, _ := persistServer(t, dir, persist.SyncAlways)
	const n = 300
	val := []byte("group-commit")
	ackWrites(t, srv.Addr(), n, val)

	// Crash: persisters die in place; then tear down the serving side
	// without the graceful pipeline flush (Close sees the pipeline
	// already dead and skips it).
	pipe.Kill()
	srv.Close()
	table.Close()

	got := recoverKeys(t, dir)
	for k := 0; k < n; k++ {
		if got[uint64(k)] != string(val) {
			t.Fatalf("acked key %d lost by crash under sync=always (have %d keys)", k, len(got))
		}
	}
}

// TestGroupCommitKeepsOverwriteOrder: a key overwritten while its first
// insert is still in flight recovers to the value the table serves. The
// two sizes take different routes to the sink — a value of at most a cache
// line is logged when the server executes the insert, a larger one when it
// executes the later Ready message — so the large insert's record can reach
// the sink after the small overwrite's; the store must not log a value that
// was replaced before it was published.
func TestGroupCommitKeepsOverwriteOrder(t *testing.T) {
	dir := t.TempDir()
	srv, table, pipe, _ := persistServer(t, dir, persist.SyncAlways)
	bw, br, closer, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	const n = 200
	small, large := []byte("small-and-last"), make([]byte, 1024)
	for k := uint64(0); k < n; k++ {
		first, last := large, small // even keys end small, odd keys end large
		if k%2 == 1 {
			first, last = small, large
		}
		for _, v := range [][]byte{first, last} {
			if err := protocol.WriteRequest(bw, protocol.Request{Op: protocol.OpInsert, Key: k, Value: v}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := protocol.WriteRequest(bw, protocol.Request{Op: protocol.OpLookup, Key: 0}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, found, err := protocol.ReadLookupResponse(br, nil); err != nil || !found || string(v) != string(small) {
		t.Fatalf("ack lookup: %d bytes, found=%v err=%v", len(v), found, err)
	}
	pipe.Kill()
	srv.Close()
	table.Close()

	got := recoverKeys(t, dir)
	for k := uint64(0); k < n; k++ {
		want := small
		if k%2 == 1 {
			want = large
		}
		if got[k] != string(want) {
			t.Fatalf("key %d recovered as %d bytes, the table served %d", k, len(got[k]), len(want))
		}
	}
}

// TestWarmRestartServesRecoveredKeys is the end-to-end warm restart: a
// server writes through the CPHASH sink path, shuts down, and a second
// server built over the same datadir serves every key with zero misses.
func TestWarmRestartServesRecoveredKeys(t *testing.T) {
	dir := t.TempDir()
	srv, table, pipe, _ := persistServer(t, dir, persist.SyncInterval)
	const n = 400
	val := []byte("warm-restart-value")
	ackWrites(t, srv.Addr(), n, val)
	if err := pipe.Snapshot(); err != nil { // half snapshot, half WAL tail
		t.Fatal(err)
	}
	ackWrites(t, srv.Addr(), n/2, []byte("tail-overwrite"))
	srv.Close()
	table.Close()

	srv2, table2, _, rst := persistServer(t, dir, persist.SyncInterval)
	defer table2.Close()
	defer srv2.Close()
	if rst.SnapshotEntries == 0 {
		t.Fatalf("warm restart loaded no snapshot: %+v", rst)
	}
	bw, br, closer, err := Dial(srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	readOne := func(k uint64) (string, bool) {
		if err := protocol.WriteRequest(bw, protocol.Request{Op: protocol.OpLookup, Key: k}); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		out, found, err := protocol.ReadLookupResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		return string(out), found
	}
	for k := 0; k < n; k++ {
		want := string(val)
		if k < n/2 {
			want = "tail-overwrite"
		}
		got, found := readOne(uint64(k))
		if !found {
			t.Fatalf("warm restart missed key %d", k)
		}
		if got != want {
			t.Fatalf("key %d: %q, want %q", k, got, want)
		}
	}
}
