package partition

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// mustStore is NewStore for configurations a test knows to be valid.
func mustStore(cfg Config) *Store {
	s, err := NewStore(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// mustArena is NewArena for capacities a test knows to be valid.
func mustArena(capacity int) *Arena {
	a, err := NewArena(capacity)
	if err != nil {
		panic(err)
	}
	return a
}

func newTestStore(t testing.TB, capacity int, policy EvictionPolicy) *Store {
	t.Helper()
	s, err := NewStore(Config{CapacityBytes: capacity, Policy: policy, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// put stores key with an 8-byte value derived from the key.
func put(t testing.TB, s *Store, k Key) {
	t.Helper()
	if !s.Put(k, binary.LittleEndian.AppendUint64(nil, k^0xabcdef), 0, 0) {
		t.Fatalf("Put(%d) failed", k)
	}
}

// mustPut stores val under k with no deadline and an assigned version.
func mustPut(t testing.TB, s *Store, k Key, val []byte) {
	t.Helper()
	if !s.Put(k, val, 0, 0) {
		t.Fatalf("Put(%d, %d B) failed", k, len(val))
	}
}

// hit reports whether k is stored, refreshing its LRU position as a read
// does.
func hit(s *Store, k Key) bool {
	_, _, ok := s.Get(k, nil)
	return ok
}

func TestInsertLookup(t *testing.T) {
	s := newTestStore(t, 64<<10, EvictLRU)
	for k := Key(1); k <= 100; k++ {
		put(t, s, k)
	}
	var dst []byte
	for k := Key(1); k <= 100; k++ {
		var ok bool
		if dst, _, ok = s.Get(k, dst[:0]); !ok {
			t.Fatalf("Get(%d) missed", k)
		}
		if got := binary.LittleEndian.Uint64(dst); got != k^0xabcdef {
			t.Fatalf("Get(%d) value = %#x, want %#x", k, got, k^0xabcdef)
		}
	}
	if got, ver, ok := s.Get(999, dst[:0]); ok || len(got) != 0 || ver != 0 {
		t.Fatalf("Get of absent key = %q v%d %v", got, ver, ok)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Hits != 100 || st.Lookups != 101 || st.Inserts != 100 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDuplicateInsertReplaces(t *testing.T) {
	s := newTestStore(t, 16<<10, EvictLRU)
	put(t, s, 7)
	_, v1, _ := s.Get(7, nil)
	mustPut(t, s, 7, bytes.Repeat([]byte{0xee}, 16))
	if s.Len() != 1 {
		t.Fatalf("Len = %d after duplicate insert, want 1", s.Len())
	}
	if got, v2, ok := s.Get(7, nil); !ok || !bytes.Equal(got, bytes.Repeat([]byte{0xee}, 16)) || v2 <= v1 {
		t.Fatalf("Get after replace = %q v%d %v; want 16 B of 0xee above v%d", got, v2, ok, v1)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// Small capacity: inserting beyond it must evict in LRU order.
	s := newTestStore(t, 2048, EvictLRU)
	var inserted []Key
	for k := Key(1); ; k++ {
		put(t, s, k)
		inserted = append(inserted, k)
		if s.Stats().Evictions > 0 {
			break
		}
		if k > 1000 {
			t.Fatal("no eviction after 1000 inserts into 2 KB partition")
		}
	}
	// Key 1 was least recently used and must be gone; the newest remains.
	if s.Contains(1) {
		t.Fatal("LRU victim (key 1) still present")
	}
	if !s.Contains(inserted[len(inserted)-1]) {
		t.Fatal("newest key missing")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUTouchOnLookup(t *testing.T) {
	s := newTestStore(t, 64<<10, EvictLRU)
	for k := Key(1); k <= 3; k++ {
		put(t, s, k)
	}
	// Order is now [3 2 1]; touching 1 makes it [1 3 2].
	hit(s, 1)
	got := s.LRUKeys()
	want := []Key{1, 3, 2}
	if len(got) != len(want) {
		t.Fatalf("LRUKeys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LRUKeys = %v, want %v", got, want)
		}
	}
}

func TestRandomEvictionMaintainsNoLRU(t *testing.T) {
	s := newTestStore(t, 2048, EvictRandom)
	for k := Key(1); k <= 200; k++ {
		put(t, s, k)
	}
	if s.LRUKeys() != nil {
		t.Fatal("random-eviction store keeps LRU state")
	}
	if s.Stats().Evictions == 0 {
		t.Fatal("no evictions under random policy")
	}
	if s.Len() == 0 {
		t.Fatal("store emptied itself")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDelete(t *testing.T) {
	s := newTestStore(t, 16<<10, EvictLRU)
	put(t, s, 5)
	if !s.Delete(5) {
		t.Fatal("Delete(5) reported missing")
	}
	if s.Delete(5) {
		t.Fatal("second Delete(5) reported present")
	}
	if s.Contains(5) {
		t.Fatal("key present after delete")
	}
	if s.UsedBytes() != 0 {
		t.Fatalf("UsedBytes = %d after delete, want 0", s.UsedBytes())
	}
}

func TestInsertRejectsBadArgs(t *testing.T) {
	s := newTestStore(t, 4<<10, EvictLRU)
	if s.Put(MaxKey+1, []byte("x"), 0, 0) {
		t.Fatal("Put accepted key above 60 bits")
	}
	if st := s.Stats(); st.InsertErr != 1 || st.Elements != 0 {
		t.Fatalf("InsertErr = %d, Elements = %d; want 1 and 0", st.InsertErr, st.Elements)
	}
}

func TestInsertTooLargeFails(t *testing.T) {
	s := newTestStore(t, 4<<10, EvictLRU)
	put(t, s, 1)
	if s.Put(2, make([]byte, 1<<20), 0, 0) {
		t.Fatal("Put of value larger than partition succeeded")
	}
	// The failed insert may have evicted everything (paper does not define
	// partial-failure semantics) but the store must stay consistent.
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestZeroSizeValue(t *testing.T) {
	s := newTestStore(t, 4<<10, EvictLRU)
	mustPut(t, s, 9, nil)
	if got, _, ok := s.Get(9, []byte("dst")); !ok || string(got) != "dst" {
		t.Fatalf("zero-size Get = %q %v, want the untouched dst and a hit", got, ok)
	}
}

// TestQuickVsMapModel drives random Insert/Lookup/Delete against a Go map
// model. Capacity is large enough that no eviction occurs, so the store
// must agree with the map exactly.
func TestQuickVsMapModel(t *testing.T) {
	f := func(ops []uint32) bool {
		s := mustStore(Config{CapacityBytes: 1 << 20, Policy: EvictLRU})
		model := map[Key][]byte{}
		for _, op := range ops {
			k := Key(op % 64)
			switch (op >> 8) % 3 {
			case 0: // insert
				v := make([]byte, int(op>>16)%128)
				for i := range v {
					v[i] = byte(op + uint32(i))
				}
				if !s.Put(k, v, 0, 0) {
					return false
				}
				model[k] = v
			case 1: // lookup
				got, _, hit := s.Get(k, nil)
				want, ok := model[k]
				if hit != ok || !bytes.Equal(got, want) {
					return false
				}
			case 2: // delete
				_, ok := model[k]
				if s.Delete(k) != ok {
					return false
				}
				delete(model, k)
			}
		}
		return s.Len() == len(model) && s.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestChurnWithEviction runs a long mixed workload with eviction pressure,
// checking every hit's bytes, then checks structural invariants.
func TestChurnWithEviction(t *testing.T) {
	for _, policy := range []EvictionPolicy{EvictLRU, EvictRandom} {
		t.Run(policy.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			s := newTestStore(t, 8<<10, policy)
			var dst []byte
			for step := 0; step < 20000; step++ {
				k := Key(rng.Intn(512))
				switch rng.Intn(4) {
				case 0, 1:
					s.Put(k, bytes.Repeat([]byte{byte(k)}, rng.Intn(64)), 0, 0)
				case 2:
					var ok bool
					if dst, _, ok = s.Get(k, dst[:0]); ok {
						for _, b := range dst {
							if b != byte(k) {
								t.Fatalf("step %d: value for key %d corrupted", step, k)
							}
						}
					}
				case 3:
					s.Delete(k)
				}
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMix64(t *testing.T) {
	// splitmix64 known answers (state 0 and 1 advanced once).
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		h := Mix64(i)
		if seen[h] {
			t.Fatalf("Mix64 collision at %d", i)
		}
		seen[h] = true
	}
	if Mix64(0) != 0 {
		// splitmix64 finalizer maps 0 to 0; bucketIndex handles it fine but
		// document the fact here so nobody "fixes" it silently.
		t.Fatal("Mix64(0) changed; update documented fixed point")
	}
}

func BenchmarkStoreLookupHit(b *testing.B) {
	s := mustStore(Config{CapacityBytes: 1 << 20, Policy: EvictLRU})
	const n = 4096
	val := []byte("abcdefgh")
	for k := Key(0); k < n; k++ {
		s.Put(k, val, 0, 0)
	}
	var dst []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _, _ = s.Get(Key(i)%n, dst[:0])
	}
}

func BenchmarkStoreInsertEvict(b *testing.B) {
	s := mustStore(Config{CapacityBytes: 256 << 10, Policy: EvictLRU})
	val := []byte("abcdefgh")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(Key(i)&MaxKey, val, 0, 0)
	}
}

// recordingSink logs the change stream as strings.
type recordingSink struct{ log []string }

func (r *recordingSink) Set(k Key, v []byte, _ int64, _ uint64) {
	r.log = append(r.log, "set "+string(v))
}
func (r *recordingSink) Delete(Key) { r.log = append(r.log, "delete") }

// TestChangeStream: every Put streams the value it stored, and a key that
// vanishes without a Set to supersede it — an explicit delete, or a Put
// over it that then finds no room — streams a delete, so the stream ends on
// the state the table serves.
func TestChangeStream(t *testing.T) {
	sink := &recordingSink{}
	s := mustStore(Config{CapacityBytes: 4 << 10, Sink: sink})
	mustPut(t, s, 1, []byte("slow"))
	mustPut(t, s, 1, []byte("fast"))
	s.Delete(1)
	mustPut(t, s, 2, []byte("kept"))
	if s.Put(2, make([]byte, 8<<10), 0, 0) {
		t.Fatal("Put larger than the store succeeded")
	}
	if got, want := sink.log, []string{"set slow", "set fast", "delete", "set kept", "delete"}; !slices.Equal(got, want) {
		t.Fatalf("stream = %q, want %q", got, want)
	}
	if s.Contains(1) || s.Contains(2) || s.UsedBytes() != 0 {
		t.Fatalf("%d bytes allocated; want an empty store", s.UsedBytes())
	}
}
