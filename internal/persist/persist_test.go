package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cphash/internal/lockhash"
	"cphash/internal/partition"
)

// memState is a model table recovery replays into.
type memState struct {
	vals map[uint64][]byte
	exps map[uint64]int64
}

func newMemState() *memState {
	return &memState{vals: map[uint64][]byte{}, exps: map[uint64]int64{}}
}

func (m *memState) apply(op Op, key uint64, exp int64, ver uint64, val []byte) error {
	switch op {
	case OpSet:
		m.vals[key] = append([]byte(nil), val...)
		m.exps[key] = exp
	case OpDelete:
		delete(m.vals, key)
		delete(m.exps, key)
	default:
		return fmt.Errorf("unknown op %d", op)
	}
	return nil
}

func openStarted(t *testing.T, cfg Config) *Pipeline {
	t.Helper()
	p, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Policy: SyncAlways, Streams: 2}
	p := openStarted(t, cfg)
	apps := []*Appender{p.Appender(0), p.Appender(1), p.Appender(2), p.Appender(3)}

	model := newMemState()
	val := make([]byte, 32)
	for i := 0; i < 2000; i++ {
		key := uint64(i % 257)
		a := apps[int(key)%len(apps)]
		switch i % 5 {
		case 4:
			a.Delete(key)
			model.apply(OpDelete, key, 0, 0, nil)
		default:
			for j := range val {
				val[j] = byte(i + j)
			}
			exp := int64(0)
			if i%3 == 0 {
				exp = time.Now().Add(time.Hour).UnixNano()
			}
			a.Set(key, val, exp, 0)
			model.apply(OpSet, key, exp, 0, val)
		}
	}
	p.Barrier()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Records != 2000 {
		t.Fatalf("Records = %d, want 2000", st.Records)
	}

	p2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := newMemState()
	st, err := p2.Recover(got.apply)
	if err != nil {
		t.Fatal(err)
	}
	if st.WALRecords != 2000 || st.TornSegments != 0 {
		t.Fatalf("recover stats: %+v", st)
	}
	compareStates(t, model, got)
}

func compareStates(t *testing.T, want, got *memState) {
	t.Helper()
	if len(got.vals) != len(want.vals) {
		t.Fatalf("recovered %d keys, want %d", len(got.vals), len(want.vals))
	}
	for k, v := range want.vals {
		gv, ok := got.vals[k]
		if !ok {
			t.Fatalf("key %d missing after recovery", k)
		}
		if string(gv) != string(v) {
			t.Fatalf("key %d: value mismatch", k)
		}
		if got.exps[k] != want.exps[k] {
			t.Fatalf("key %d: expireAt %d, want %d", k, got.exps[k], want.exps[k])
		}
	}
}

func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Policy: SyncNone, Streams: 1}
	p := openStarted(t, cfg)
	a := p.Appender(0)
	val := []byte("payload-payload-payload")
	for i := 0; i < 100; i++ {
		a.Set(uint64(i), val, 0, 0)
	}
	p.Barrier() // force everything to disk so truncation is deterministic
	p.Kill()

	segs, _, err := scanDir(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("scanDir: %v (%d segs)", err, len(segs))
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last.path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the final record's payload: one record survives short.
	if err := os.Truncate(last.path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	p2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := newMemState()
	st, err := p2.Recover(got.apply)
	if err != nil {
		t.Fatal(err)
	}
	if st.WALRecords != 99 {
		t.Fatalf("replayed %d records, want 99", st.WALRecords)
	}
	if st.TornSegments != 1 {
		t.Fatalf("TornSegments = %d, want 1", st.TornSegments)
	}
	if _, ok := got.vals[99]; ok {
		t.Fatal("torn record resurrected")
	}
	if string(got.vals[98]) != string(val) {
		t.Fatal("clean prefix damaged")
	}

	// A restart rolls to a fresh segment; new records land after the
	// tear and must replay on top of the surviving prefix.
	if err := p2.Start(); err != nil {
		t.Fatal(err)
	}
	a2 := p2.Appender(0)
	a2.Set(7, []byte("after-restart"), 0, 0)
	p2.Barrier()
	p2.Close()

	p3, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got3 := newMemState()
	if _, err := p3.Recover(got3.apply); err != nil {
		t.Fatal(err)
	}
	if string(got3.vals[7]) != "after-restart" {
		t.Fatalf("post-restart record lost: %q", got3.vals[7])
	}
	if len(got3.vals) != 99 {
		t.Fatalf("recovered %d keys, want 99", len(got3.vals))
	}
}

func TestSegmentRollAndReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Policy: SyncNone, Streams: 1, MaxSegment: 1 << 10}
	p := openStarted(t, cfg)
	a := p.Appender(0)
	model := newMemState()
	val := make([]byte, 100)
	for i := 0; i < 200; i++ {
		key := uint64(i % 17)
		val[0] = byte(i)
		a.Set(key, val, 0, 0)
		model.apply(OpSet, key, 0, 0, val)
	}
	p.Close()
	segs, _, _ := scanDir(dir)
	if len(segs) < 3 {
		t.Fatalf("expected multiple segments, got %d", len(segs))
	}
	p2, _ := Open(cfg)
	got := newMemState()
	st, err := p2.Recover(got.apply)
	if err != nil {
		t.Fatal(err)
	}
	if st.WALRecords != 200 {
		t.Fatalf("replayed %d, want 200", st.WALRecords)
	}
	compareStates(t, model, got)
}

func TestBarrierAdvancesDurable(t *testing.T) {
	dir := t.TempDir()
	// An hour-long interval: nothing syncs unless Barrier forces it.
	cfg := Config{Dir: dir, Policy: SyncInterval, SyncInterval: time.Hour, Streams: 1}
	p := openStarted(t, cfg)
	defer p.Close()
	a := p.Appender(0)
	a.Set(1, []byte("v"), 0, 0)
	deadline := time.Now().Add(2 * time.Second)
	for a.pub.Len() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond) // wait for the persister to drain
	}
	p.Barrier()
	ws := p.WALStatus()
	if len(ws) != 1 {
		t.Fatalf("streams = %d", len(ws))
	}
	if ws[0].DurableBytes != ws[0].WrittenBytes {
		t.Fatalf("durable %d != written %d after Barrier", ws[0].DurableBytes, ws[0].WrittenBytes)
	}
	if a.durable.Load() != a.published.Load() {
		t.Fatalf("durable seq %d != published %d", a.durable.Load(), a.published.Load())
	}
}

// fakeClock is an adjustable test clock shared by table and pipeline.
type fakeClock struct{ now int64 }

func (c *fakeClock) Now() int64 { return c.now }

// lockhashHarness builds a LOCKHASH table wired to a fresh pipeline on
// dir, restoring any prior durable state into it first.
func lockhashHarness(t *testing.T, dir string, clk *fakeClock) (*lockhash.Table, *Pipeline, RecoverStats) {
	t.Helper()
	p, err := Open(Config{Dir: dir, Policy: SyncNone, Streams: 2, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	table, err := lockhash.New(lockhash.Config{
		Partitions:    8,
		CapacityBytes: 1 << 20,
		Clock:         clk.Now,
		Sink:          func(i int) partition.ChangeSink { return p.Appender(i) },
	})
	if err != nil {
		t.Fatal(err)
	}
	p.SetSource(LockHashSource(table))
	st, err := RestoreLockHash(p, table)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	return table, p, st
}

func TestSnapshotCompactionAndWarmRestart(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{now: 1}

	table, p, _ := lockhashHarness(t, dir, clk)
	val := []byte("0123456789abcdef")
	for k := uint64(0); k < 500; k++ {
		if !table.Put(k, val) {
			t.Fatalf("put %d failed", k)
		}
	}
	// TTL'd keys: one hour on the fake clock.
	for k := uint64(500); k < 600; k++ {
		if !table.PutTTL(k, val, time.Hour) {
			t.Fatal("putTTL failed")
		}
	}
	table.Delete(3)
	p.Barrier()
	preSegs, _, _ := scanDir(dir)
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	postSegs, snaps, _ := scanDir(dir)
	if len(snaps) != 1 {
		t.Fatalf("snapshots on disk = %d, want 1", len(snaps))
	}
	// Every pre-snapshot segment was covered and deleted; the streams
	// rolled onto fresh ones.
	for _, old := range preSegs {
		for _, kept := range postSegs {
			if old.path == kept.path {
				t.Fatalf("covered segment %s not truncated", old.path)
			}
		}
	}
	// WAL tail after the snapshot.
	table.Put(1000, []byte("tail-entry"))
	table.Delete(4)
	p.Barrier()
	p.Close()

	// Warm restart half an hour later: TTLs must carry remaining time.
	clk.now += int64(30 * time.Minute)
	table2, p2, rst := lockhashHarness(t, dir, clk)
	defer p2.Close()
	if rst.SnapshotEntries == 0 {
		t.Fatalf("restart did not load the snapshot: %+v", rst)
	}
	var dst []byte
	check := func(k uint64, want string, wantHit bool) {
		t.Helper()
		dst = dst[:0]
		out, ok := table2.Get(k, dst)
		if ok != wantHit {
			t.Fatalf("key %d: hit=%v, want %v", k, ok, wantHit)
		}
		if ok && string(out) != want {
			t.Fatalf("key %d: %q, want %q", k, out, want)
		}
	}
	check(0, string(val), true)
	check(3, "", false) // deleted pre-snapshot
	check(4, "", false) // deleted in the WAL tail
	check(1000, "tail-entry", true)
	check(599, string(val), true) // 30min into a 1h TTL: alive

	// The remaining TTL must be ~30 minutes, not a fresh hour: advance
	// past the original deadline and the key must be gone.
	clk.now += int64(31 * time.Minute)
	check(599, "", false)
	check(0, string(val), true) // no-TTL keys unaffected
}

func TestRecoverPrefersNewestValidSnapshot(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{now: 1}
	table, p, _ := lockhashHarness(t, dir, clk)
	table.Put(1, []byte("one"))
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	table.Put(2, []byte("two"))
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	p.Close()
	_, snaps, _ := scanDir(dir)
	if len(snaps) != 1 {
		t.Fatalf("old snapshot not truncated: %d on disk", len(snaps))
	}
	// Corrupt the newest snapshot: recovery must reject it whole and
	// fall back (here: to nothing + full WAL, which was compacted — so
	// the fallback state is empty; the point is no crash, no garbage).
	raw, err := os.ReadFile(snaps[0].path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-6] ^= 0xff // inside the CRC
	if err := os.WriteFile(snaps[0].path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	p2, _ := Open(Config{Dir: dir, Policy: SyncNone, Streams: 2, Clock: clk.Now})
	got := newMemState()
	st, err := p2.Recover(got.apply)
	if err != nil {
		t.Fatal(err)
	}
	if st.InvalidSnapshots != 1 {
		t.Fatalf("InvalidSnapshots = %d, want 1", st.InvalidSnapshots)
	}
	if st.SnapshotGen != 0 || st.SnapshotEntries != 0 {
		t.Fatalf("corrupt snapshot loaded: %+v", st)
	}
}

func TestRecoverSkipsExpired(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{now: 1}
	table, p, _ := lockhashHarness(t, dir, clk)
	table.Put(1, []byte("forever"))
	table.PutTTL(2, []byte("short"), time.Minute)
	p.Close()

	clk.now += int64(2 * time.Minute)
	table2, p2, rst := lockhashHarness(t, dir, clk)
	defer p2.Close()
	if rst.SkippedExpired != 1 {
		t.Fatalf("SkippedExpired = %d, want 1", rst.SkippedExpired)
	}
	if _, ok := table2.Get(1, nil); !ok {
		t.Fatal("persistent key lost")
	}
	if _, ok := table2.Get(2, nil); ok {
		t.Fatal("expired key resurrected")
	}
}

// TestStreamsReconfigured: shrinking Config.Streams across restarts
// must not resurrect old values. The key's records move to a different
// stream in the second run; the snapshot then covers the old stream's
// segments via the global seq ordering (they predate every roll
// watermark), so recovery must neither replay nor retain them.
func TestStreamsReconfigured(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{now: 1}

	p1, err := Open(Config{Dir: dir, Policy: SyncNone, Streams: 3, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Start(); err != nil {
		t.Fatal(err)
	}
	// Partition 2 maps to stream 2 under Streams=3 — a stream that will
	// not exist in the second run.
	p1.Appender(2).Set(77, []byte("v1"), 0, 0)
	p1.Barrier()
	p1.Close()

	// Second run, fewer streams: overwrite the key, snapshot.
	cfg2 := Config{Dir: dir, Policy: SyncNone, Streams: 2, Clock: clk.Now}
	p2, err := Open(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	entries := []partition.ScanEntry{{Key: 77, Value: []byte("v2")}}
	p2.SetSource(func(cursor uint64, max int, dst []partition.ScanEntry, vals []byte) ([]partition.ScanEntry, []byte, uint64, bool, error) {
		return append(dst, entries...), vals, 0, true, nil
	})
	if err := p2.Start(); err != nil {
		t.Fatal(err)
	}
	p2.Appender(2).Set(77, []byte("v2"), 0, 0)
	p2.Barrier()
	if err := p2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	p2.Close()

	// The orphan stream's segments are covered by the snapshot and must
	// be gone; recovery must yield v2, not the resurrected v1.
	segs, _, _ := scanDir(dir)
	for _, s := range segs {
		if s.stream == 2 {
			t.Fatalf("covered segment from the retired stream survives: %s", s.path)
		}
	}
	p3, err := Open(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	got := newMemState()
	if _, err := p3.Recover(got.apply); err != nil {
		t.Fatal(err)
	}
	if string(got.vals[77]) != "v2" {
		t.Fatalf("key 77 recovered as %q, want %q — a retired stream's covered segment replayed", got.vals[77], "v2")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want SyncPolicy
		err  bool
	}{
		{"none", SyncNone, false},
		{"interval", SyncInterval, false},
		{"always", SyncAlways, false},
		{" Always ", SyncAlways, false},
		{"fsync", 0, true},
		{"", 0, true},
	}
	for _, c := range cases {
		got, err := ParseSyncPolicy(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseSyncPolicy(%q): err = %v", c.in, err)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestOpenRejectsBadConfig(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("Open with no Dir succeeded")
	}
	if _, err := Open(Config{Dir: t.TempDir(), RingDepth: 3}); err == nil {
		t.Fatal("Open with non-power-of-two RingDepth succeeded")
	}
}

func TestScanDirIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"notes.txt", "w-bad.wal", "sxyz.snap", "w001-zzzz.wal"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	segs, snaps, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 0 || len(snaps) != 0 {
		t.Fatalf("foreign files matched: %d segs, %d snaps", len(segs), len(snaps))
	}
	if !strings.HasSuffix(walName(1, 2), ".wal") {
		t.Fatal("walName suffix")
	}
}
