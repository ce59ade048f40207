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

// TestLookupCopiesHit: a completed hit is the server's copy, owned by the
// Op, so its value and version stay what the lookup read until Release,
// whatever then happens to the key.
func TestLookupCopiesHit(t *testing.T) {
	for _, sz := range []struct {
		name string
		size int
	}{{"16B", 16}, {"1KiB", 1024}} {
		size := sz.size
		for _, change := range []string{"overwritten", "deleted", "evicted"} {
			t.Run(sz.name+"/"+change, func(t *testing.T) {
				tb := newTestTable(t, Config{Partitions: 1, CapacityBytes: 64 << 10})
				c := tb.MustClient(0)
				defer c.Close()
				const k = Key(7)
				want := value(k, size)
				if !c.Put(k, want) {
					t.Fatal("Put failed")
				}
				o := c.LookupAsync(k)
				c.Wait(o)
				if !o.Hit() || !bytes.Equal(o.Value(), want) {
					t.Fatalf("lookup: hit %v, %d bytes", o.Hit(), o.Size())
				}
				ver := o.Version()
				switch change {
				case "overwritten":
					// Twice, so the second value may land in the block the
					// first overwrite freed.
					for i := byte(1); i <= 2; i++ {
						if !c.Put(k, stressValue(k, i, size)) {
							t.Fatal("overwrite failed")
						}
					}
					if got, _ := c.Get(k, nil); !bytes.Equal(got, stressValue(k, 2, size)) {
						t.Fatal("overwrite not visible")
					}
				case "deleted":
					if !c.Delete(k) {
						t.Fatal("delete found nothing")
					}
					// Another key may reuse the freed block.
					if !c.Put(k+1, stressValue(k+1, 3, size)) {
						t.Fatal("Put after delete failed")
					}
				case "evicted":
					// Twice the capacity, written without reading k, so LRU
					// must evict it.
					junk := make([]byte, size)
					for j := 0; j < 2*tb.CapacityBytes()/(size+partition.HeaderBytes); j++ {
						c.Put(Key(100+j), junk)
					}
					if _, ok := c.Get(k, nil); ok {
						t.Fatal("key never evicted")
					}
				}
				if !bytes.Equal(o.Value(), want) {
					t.Errorf("after the key was %s, the hit's bytes changed before Release", change)
				}
				if o.Version() != ver {
					t.Errorf("after the key was %s, the hit's version changed from %d to %d", change, ver, o.Version())
				}
				c.Release(o)
			})
		}
	}
}

// TestReleaseBoundsKeptBuffer: Release keeps a hit's buffer for the next
// lookup, up to maxKeptVal, and drops a larger one.
func TestReleaseBoundsKeptBuffer(t *testing.T) {
	tb := newTestTable(t, Config{Partitions: 1, CapacityBytes: 4 << 20})
	c := tb.MustClient(0)
	defer c.Close()
	for _, size := range []int{1 << 10, 1 << 20} {
		k := Key(size)
		if !c.Put(k, value(k, size)) {
			t.Fatalf("%d B: Put failed", size)
		}
		o := c.LookupAsync(k)
		c.Wait(o)
		if !o.Hit() || o.Size() != size {
			t.Fatalf("%d B: hit %v, %d bytes", size, o.Hit(), o.Size())
		}
		c.Release(o)
		kept := cap(c.freeOps.val)
		if size <= maxKeptVal && kept < size {
			t.Fatalf("%d B: Release dropped a buffer within the bound", size)
		}
		for f := c.freeOps; f != nil; f = f.next {
			if cap(f.val) > maxKeptVal {
				t.Fatalf("%d B: a recycled Op keeps a %d B buffer, bound %d", size, cap(f.val), maxKeptVal)
			}
		}
	}
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
