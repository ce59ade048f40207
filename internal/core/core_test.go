package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"cphash/internal/partition"
)

func newTestTable(t testing.TB, cfg Config) *Table {
	t.Helper()
	if cfg.CapacityBytes == 0 {
		cfg.CapacityBytes = 1 << 20
	}
	if cfg.Partitions == 0 {
		cfg.Partitions = 4
	}
	if cfg.MaxClients == 0 {
		cfg.MaxClients = 2
	}
	if cfg.RingCapacity == 0 {
		cfg.RingCapacity = 64
	}
	cfg.Seed = 12345
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	return tb
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Partitions: 4, CapacityBytes: 64}); err == nil {
		t.Error("accepted capacity smaller than per-partition minimum")
	}
	if _, err := New(Config{Partitions: 1, CapacityBytes: 1 << 20, RingCapacity: 3}); err == nil {
		t.Error("accepted non-power-of-two ring capacity")
	}
	tb, err := New(Config{Partitions: 3, CapacityBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if tb.NumPartitions() != 4 {
		t.Errorf("partitions = %d, want rounded-up 4", tb.NumPartitions())
	}
}

func TestPutGetSync(t *testing.T) {
	tb := newTestTable(t, Config{})
	c := tb.MustClient(0)
	defer c.Close()

	val := []byte("hello, cphash")
	if !c.Put(42, val) {
		t.Fatal("Put failed")
	}
	got, ok := c.Get(42, nil)
	if !ok {
		t.Fatal("Get missed after Put")
	}
	if !bytes.Equal(got, val) {
		t.Fatalf("Get = %q, want %q", got, val)
	}
	if _, ok := c.Get(43, nil); ok {
		t.Fatal("Get hit for never-inserted key")
	}
	c.Delete(42)
	if _, ok := c.Get(42, nil); ok {
		t.Fatal("Get hit after Delete")
	}
}

func TestGetAppendsToDst(t *testing.T) {
	tb := newTestTable(t, Config{})
	c := tb.MustClient(0)
	defer c.Close()
	c.Put(1, []byte("abc"))
	dst := []byte("xy")
	dst, ok := c.Get(1, dst)
	if !ok || string(dst) != "xyabc" {
		t.Fatalf("Get append = %q, %v", dst, ok)
	}
}

func TestManyKeysAllPartitions(t *testing.T) {
	tb := newTestTable(t, Config{Partitions: 8})
	c := tb.MustClient(0)
	defer c.Close()
	const n = 2000
	buf := make([]byte, 8)
	for k := Key(0); k < n; k++ {
		binary.LittleEndian.PutUint64(buf, uint64(k)*3+1)
		if !c.Put(k, buf) {
			t.Fatalf("Put(%d) failed", k)
		}
	}
	for k := Key(0); k < n; k++ {
		got, ok := c.Get(k, nil)
		if !ok {
			t.Fatalf("Get(%d) missed", k)
		}
		if v := binary.LittleEndian.Uint64(got); v != uint64(k)*3+1 {
			t.Fatalf("Get(%d) = %d, want %d", k, v, uint64(k)*3+1)
		}
	}
	// Work should be spread across all 8 partitions.
	for p := 0; p < tb.NumPartitions(); p++ {
		if tb.PartitionStats(p).Inserts == 0 {
			t.Errorf("partition %d received no inserts", p)
		}
	}
}

func TestAsyncPipeline(t *testing.T) {
	tb := newTestTable(t, Config{})
	c := tb.MustClient(0)
	defer c.Close()
	c.SetPipeline(256)

	const n = 5000
	// InsertAsync requires each value buffer stable until its op is Done,
	// so every in-flight op gets its own slot in vals.
	vals := make([][]byte, 64)
	for i := range vals {
		vals[i] = make([]byte, 8)
	}
	ops := make([]*Op, 0, n)
	for k := Key(0); k < n; k++ {
		val := vals[len(ops)]
		binary.LittleEndian.PutUint64(val, uint64(k))
		ops = append(ops, c.InsertAsync(k, val))
		if len(ops) == 64 {
			c.WaitAll()
			for _, o := range ops {
				if !o.Hit() {
					t.Fatal("insert failed")
				}
				c.Release(o)
			}
			ops = ops[:0]
		}
	}
	c.WaitAll()
	for _, o := range ops {
		c.Release(o)
	}

	// Pipelined lookups.
	lops := make([]*Op, 0, 512)
	hits := 0
	for k := Key(0); k < n; k++ {
		lops = append(lops, c.LookupAsync(k))
		if len(lops) == 512 {
			c.WaitAll()
			for _, o := range lops {
				if o.Hit() {
					if got := binary.LittleEndian.Uint64(o.Value()); got != uint64(o.Key()) {
						t.Fatalf("key %d: value %d", o.Key(), got)
					}
					hits++
				}
				c.Release(o)
			}
			lops = lops[:0]
		}
	}
	c.WaitAll()
	for _, o := range lops {
		if o.Hit() {
			hits++
		}
		c.Release(o)
	}
	if hits != n {
		t.Fatalf("hits = %d, want %d", hits, n)
	}
}

func TestInsertFailureWhenTooLarge(t *testing.T) {
	tb := newTestTable(t, Config{Partitions: 1, CapacityBytes: 4096})
	c := tb.MustClient(0)
	defer c.Close()
	if c.Put(1, make([]byte, 1<<20)) {
		t.Fatal("Put of value larger than partition succeeded")
	}
	if !c.Put(2, make([]byte, 64)) {
		t.Fatal("small Put failed after oversized Put")
	}
}

func TestEvictionUnderPressure(t *testing.T) {
	tb := newTestTable(t, Config{Partitions: 2, CapacityBytes: 8 << 10})
	c := tb.MustClient(0)
	defer c.Close()
	val := make([]byte, 32)
	for k := Key(0); k < 2000; k++ {
		if !c.Put(k, val) {
			t.Fatalf("Put(%d) failed under eviction pressure", k)
		}
	}
	st := tb.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite 2000×(32B+hdr) into 8 KB")
	}
	// Recent keys should still be resident (LRU evicts old ones).
	if _, ok := c.Get(1999, nil); !ok {
		t.Fatal("most recent key evicted")
	}
}

func TestLookupPinsAcrossEviction(t *testing.T) {
	tb := newTestTable(t, Config{Partitions: 1, CapacityBytes: 4 << 10})
	c := tb.MustClient(0)
	defer c.Close()
	want := []byte("pinned-value-123")
	if !c.Put(7, want) {
		t.Fatal("Put failed")
	}
	o := c.LookupAsync(7)
	c.Wait(o)
	if !o.Hit() {
		t.Fatal("lookup missed")
	}
	// Storm of inserts to force eviction of key 7.
	junk := make([]byte, 64)
	for k := Key(100); k < 400; k++ {
		c.Put(k, junk)
	}
	if _, ok := c.Get(7, nil); ok {
		t.Log("key 7 still resident; eviction pressure insufficient (not fatal)")
	}
	if !bytes.Equal(o.Value(), want) {
		t.Fatalf("pinned value corrupted: %q", o.Value())
	}
	c.Release(o)
}

func TestTwoClientsConcurrent(t *testing.T) {
	tb := newTestTable(t, Config{Partitions: 4, MaxClients: 2, CapacityBytes: 4 << 20})
	var wg sync.WaitGroup
	for id := 0; id < 2; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := tb.MustClient(id)
			defer c.Close()
			base := Key(id) << 32
			buf := make([]byte, 8)
			for k := Key(0); k < 3000; k++ {
				binary.LittleEndian.PutUint64(buf, uint64(base+k))
				if !c.Put(base+k, buf) {
					t.Errorf("client %d: Put failed", id)
					return
				}
			}
			for k := Key(0); k < 3000; k++ {
				got, ok := c.Get(base+k, nil)
				if !ok || binary.LittleEndian.Uint64(got) != uint64(base+k) {
					t.Errorf("client %d: Get(%d) = %v %v", id, base+k, got, ok)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestKeysAreMaskedTo60Bits(t *testing.T) {
	tb := newTestTable(t, Config{})
	c := tb.MustClient(0)
	defer c.Close()
	full := Key(0xFFFFFFFFFFFFFFFF)
	c.Put(full, []byte("top"))
	// The same key masked to 60 bits must alias it.
	got, ok := c.Get(full&MaxKey, nil)
	if !ok || string(got) != "top" {
		t.Fatalf("60-bit masking broken: %q %v", got, ok)
	}
}

func TestClientIDValidation(t *testing.T) {
	tb := newTestTable(t, Config{MaxClients: 1})
	if _, err := tb.Client(1); err == nil {
		t.Fatal("out-of-range client id accepted")
	}
	if _, err := tb.Client(-1); err == nil {
		t.Fatal("negative client id accepted")
	}
}

func TestCloseIdempotent(t *testing.T) {
	tb := newTestTable(t, Config{})
	tb.Close()
	tb.Close() // second close must be a no-op
	if _, err := tb.Client(0); err == nil {
		t.Fatal("Client succeeded after Close")
	}
}

func TestQuickVsMapModel(t *testing.T) {
	tb := newTestTable(t, Config{Partitions: 4, CapacityBytes: 4 << 20})
	c := tb.MustClient(0)
	defer c.Close()
	model := map[Key]string{}
	f := func(ops []uint32) bool {
		for _, op := range ops {
			k := Key(op % 128)
			switch (op >> 8) % 3 {
			case 0:
				v := fmt.Sprintf("v%d-%d", k, op)
				if !c.Put(k, []byte(v)) {
					return false
				}
				model[k] = v
			case 1:
				got, ok := c.Get(k, nil)
				want, wantOK := model[k]
				if ok != wantOK || (ok && string(got) != want) {
					return false
				}
			case 2:
				c.Delete(k)
				delete(model, k)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRequestString(t *testing.T) {
	cases := []struct {
		r    request
		want string
	}{
		{request{keyop: makeKeyop(opLookup, 5)}, "Lookup(5)"},
		{request{keyop: makeKeyop(opInsert, 6), arg: 16}, "Insert(6, 16 bytes)"},
		{request{keyop: makeKeyop(opReady, 7)}, "Ready(7)"},
		{request{keyop: makeKeyop(opDecref, 8)}, "Decref(8)"},
		{request{keyop: makeKeyop(opDelete, 9)}, "Delete(9)"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestPartitionOfIsStable(t *testing.T) {
	tb := newTestTable(t, Config{Partitions: 8})
	for k := Key(0); k < 1000; k++ {
		p := tb.PartitionOf(k)
		if p < 0 || p >= 8 {
			t.Fatalf("PartitionOf(%d) = %d out of range", k, p)
		}
		if tb.PartitionOf(k) != p {
			t.Fatalf("PartitionOf(%d) unstable", k)
		}
	}
}

// TestSmallRingBackpressure uses a tiny ring so the full-ring send path and
// reply-driven backpressure actually execute.
func TestSmallRingBackpressure(t *testing.T) {
	tb := newTestTable(t, Config{Partitions: 1, RingCapacity: 8, CapacityBytes: 1 << 20})
	c := tb.MustClient(0)
	defer c.Close()
	c.SetPipeline(64) // far above ring capacity of 8
	val := []byte("12345678")
	ops := make([]*Op, 0, 200)
	for k := Key(0); k < 200; k++ {
		ops = append(ops, c.InsertAsync(k, val))
	}
	c.WaitAll()
	for _, o := range ops {
		if !o.Hit() {
			t.Fatal("insert failed under backpressure")
		}
		c.Release(o)
	}
	for k := Key(0); k < 200; k++ {
		if _, ok := c.Get(k, nil); !ok {
			t.Fatalf("Get(%d) missed", k)
		}
	}
}

// TestPollReentrant pins the full-ring send path's two invariants.
// Completing a two-phase insert reply (a value larger than a cache line)
// sends a Ready message, and with the request ring full that send polls: (1) the nested Poll must carry on from the
// batch the outer one is halfway through — not refill the shared reply
// buffer under it and pop pending ops out of order, which completed
// replies twice or against the wrong op ("Decref without matching
// reference", or a value under the wrong key); (2) a send waiting for
// ring space must keep kicking the server, because those Ready messages
// can refill the ring, unkicked, after the server drained it and parked
// (a hang with every server asleep). Each round nests Polls hundreds of
// times; without either fix the test fails in nearly every run.
func TestPollReentrant(t *testing.T) {
	for round := 0; round < 40; round++ {
		tb := MustNew(Config{Partitions: 2, RingCapacity: 8, CapacityBytes: 1 << 20, MaxClients: 1, Seed: 1})
		c := tb.MustClient(0)
		c.SetPipeline(64) // far above the ring capacity of 8
		const keys = 300
		vals := make([][]byte, keys)
		ops := make([]*Op, keys)
		for k := range ops {
			// Longer than a cache line: only two-phase inserts send Ready.
			vals[k] = []byte(fmt.Sprintf("value-%05d-%02d-%064d", k, round, k))
			ops[k] = c.InsertAsync(Key(k), vals[k])
		}
		c.WaitAll()
		for k, o := range ops {
			if !o.Hit() {
				t.Fatalf("round %d: insert %d failed", round, k)
			}
			c.Release(o)
		}
		// Lookups interleaved with inserts: a lookup reply completed
		// against an insert op (or the reverse) shows as a wrong value.
		ins := make([]*Op, keys)
		for k := range ops {
			ops[k] = c.LookupAsync(Key(k))
			ins[k] = c.InsertAsync(Key(k+keys), vals[k])
		}
		c.WaitAll()
		for k, o := range ops {
			if !o.Hit() || string(o.Value()) != string(vals[k]) {
				t.Fatalf("round %d: lookup %d = %q, hit %v; want %q", round, k, o.Value(), o.Hit(), vals[k])
			}
			c.Release(o)
			if !ins[k].Hit() {
				t.Fatalf("round %d: second insert %d failed", round, k)
			}
			c.Release(ins[k])
		}
		if c.Outstanding() != 0 || c.Issued() != c.Completed() {
			t.Fatalf("round %d: %d outstanding, issued %d, completed %d", round, c.Outstanding(), c.Issued(), c.Completed())
		}
		c.Close()
		tb.Close()
	}
}

func TestGOMAXPROCSOne(t *testing.T) {
	// The repository must work on a single-P runtime (the paper's servers
	// spin; ours must yield). Run a small workload under GOMAXPROCS(1).
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	tb := newTestTable(t, Config{Partitions: 2})
	c := tb.MustClient(0)
	defer c.Close()
	for k := Key(0); k < 500; k++ {
		if !c.Put(k, []byte("abcdefgh")) {
			t.Fatal("Put failed")
		}
	}
	for k := Key(0); k < 500; k++ {
		if _, ok := c.Get(k, nil); !ok {
			t.Fatalf("Get(%d) missed", k)
		}
	}
}

func TestRandomEvictionPolicy(t *testing.T) {
	tb := newTestTable(t, Config{Partitions: 2, CapacityBytes: 8 << 10, Policy: partition.EvictRandom})
	c := tb.MustClient(0)
	defer c.Close()
	for k := Key(0); k < 1000; k++ {
		if !c.Put(k, []byte("abcdefgh")) {
			t.Fatalf("Put(%d) failed", k)
		}
	}
	if tb.Stats().Evictions == 0 {
		t.Fatal("no evictions under random policy")
	}
}

func BenchmarkCorePutGet(b *testing.B) {
	tb := MustNew(Config{Partitions: 2, CapacityBytes: 8 << 20, MaxClients: 1, Seed: 1})
	defer tb.Close()
	c := tb.MustClient(0)
	defer c.Close()
	val := []byte("01234567")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := Key(i) & 0xFFFF
		if i%3 == 0 {
			c.Put(k, val)
		} else {
			c.Get(k, nil)
		}
	}
}
