package lockhash

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"cphash/internal/partition"
)

func newTable(t testing.TB, cfg Config) *Table {
	t.Helper()
	if cfg.CapacityBytes == 0 {
		cfg.CapacityBytes = 1 << 20
	}
	cfg.Seed = 99
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestPartitionCapping(t *testing.T) {
	tb := newTable(t, Config{Partitions: 4096, CapacityBytes: 64 << 10})
	if got := tb.NumPartitions(); got != 64 {
		t.Errorf("64 KB / 1 KB min: partitions = %d, want 64", got)
	}
	tb2 := newTable(t, Config{Partitions: 4096, CapacityBytes: 8 << 20})
	if got := tb2.NumPartitions(); got != 4096 {
		t.Errorf("8 MB table: partitions = %d, want 4096", got)
	}
	tb3 := newTable(t, Config{Partitions: 3000, CapacityBytes: 64 << 20})
	if got := tb3.NumPartitions(); got != 2048 {
		t.Errorf("3000 requested: partitions = %d, want floor pow2 2048", got)
	}
}

func TestPutGetDelete(t *testing.T) {
	tb := newTable(t, Config{Partitions: 16})
	if !tb.Put(1, []byte("value-1")) {
		t.Fatal("Put failed")
	}
	got, ok := tb.Get(1, nil)
	if !ok || string(got) != "value-1" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if _, ok := tb.Get(2, nil); ok {
		t.Fatal("Get hit absent key")
	}
	if !tb.Delete(1) {
		t.Fatal("Delete reported absent")
	}
	if tb.Delete(1) {
		t.Fatal("second Delete reported present")
	}
}

// TestGetVer: GetVer copies the value and reads its version under one
// lock hold, so the pair always comes from one generation of the entry,
// even while another goroutine overwrites it, and the copy outlives the
// overwrite.
func TestGetVer(t *testing.T) {
	tb := newTable(t, Config{Partitions: 4, CapacityBytes: 16 << 10})
	if _, _, ok := tb.GetVer(7, nil); ok {
		t.Fatal("GetVer hit an absent key")
	}
	tb.Put(7, []byte("first"))
	got, v1, ok := tb.GetVer(7, []byte("dst:"))
	if !ok || string(got) != "dst:first" || v1 == 0 {
		t.Fatalf("GetVer = %q, %d, %v", got, v1, ok)
	}
	tb.Put(7, []byte("again"))
	if string(got) != "dst:first" {
		t.Fatalf("the copy changed after an overwrite: %q", got)
	}
	if again, v2, _ := tb.GetVer(7, nil); string(again) != "again" || v2 <= v1 {
		t.Fatalf("after the overwrite: %q at version %d (was %d)", again, v2, v1)
	}

	// Each generation's value names its own explicit version.
	const gens = 20000
	done := make(chan struct{})
	go func() {
		defer close(done)
		val := make([]byte, 200)
		for v := uint64(1000); v < 1000+gens; v++ {
			binary.LittleEndian.PutUint64(val, v)
			tb.PutTTLVer(9, val, 0, v)
		}
	}()
	var buf []byte
	for {
		select {
		case <-done:
			return
		default:
		}
		var ver uint64
		if buf, ver, ok = tb.GetVer(9, buf[:0]); ok && binary.LittleEndian.Uint64(buf) != ver {
			t.Fatalf("value of version %d read with version %d", binary.LittleEndian.Uint64(buf), ver)
		}
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	tb := newTable(t, Config{Partitions: 64, CapacityBytes: 4 << 20})
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 8)
			rng := uint64(g)*2654435761 + 1
			for i := 0; i < 5000; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				k := Key(rng % 4096)
				if rng&3 == 0 {
					binary.LittleEndian.PutUint64(buf, uint64(k)^0xdead)
					tb.Put(k, buf)
				} else {
					if v, ok := tb.Get(k, nil); ok {
						if binary.LittleEndian.Uint64(v) != uint64(k)^0xdead {
							t.Errorf("corrupt value for key %d", k)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := tb.Stats()
	if st.Inserts == 0 || st.Lookups == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
}

func TestEvictionLRUAndRandom(t *testing.T) {
	for _, policy := range []partition.EvictionPolicy{partition.EvictLRU, partition.EvictRandom} {
		t.Run(policy.String(), func(t *testing.T) {
			tb := newTable(t, Config{Partitions: 4, CapacityBytes: 16 << 10, Policy: policy})
			for k := Key(0); k < 3000; k++ {
				if !tb.Put(k, []byte("01234567")) {
					t.Fatalf("Put(%d) failed", k)
				}
			}
			if tb.Stats().Evictions == 0 {
				t.Fatal("no evictions")
			}
			if err := tb.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestQuickVsMapModel(t *testing.T) {
	tb := newTable(t, Config{Partitions: 8, CapacityBytes: 8 << 20})
	model := map[Key]string{}
	f := func(ops []uint32) bool {
		for _, op := range ops {
			k := Key(op % 256)
			switch (op >> 8) % 3 {
			case 0:
				v := fmt.Sprintf("v%d-%d", k, op)
				if !tb.Put(k, []byte(v)) {
					return false
				}
				model[k] = v
			case 1:
				got, ok := tb.Get(k, nil)
				want, wantOK := model[k]
				if ok != wantOK || (ok && string(got) != want) {
					return false
				}
			case 2:
				_, present := model[k]
				if tb.Delete(k) != present {
					return false
				}
				delete(model, k)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyMasking(t *testing.T) {
	tb := newTable(t, Config{Partitions: 4})
	full := Key(0xFFFFFFFFFFFFFFFF)
	tb.Put(full, []byte("top"))
	got, ok := tb.Get(full&partition.MaxKey, nil)
	if !ok || string(got) != "top" {
		t.Fatalf("masking broken: %q %v", got, ok)
	}
}

func BenchmarkLockHashGet(b *testing.B) {
	tb := MustNew(Config{Partitions: 256, CapacityBytes: 8 << 20, Seed: 1})
	buf := make([]byte, 8)
	for k := Key(0); k < 8192; k++ {
		binary.LittleEndian.PutUint64(buf, uint64(k))
		tb.Put(k, buf)
	}
	b.RunParallel(func(pb *testing.PB) {
		var dst []byte
		var k Key
		for pb.Next() {
			dst, _ = tb.Get(k&8191, dst[:0])
			k++
		}
	})
}
