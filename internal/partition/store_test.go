package partition

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func newTestStore(t testing.TB, capacity int, policy EvictionPolicy) *Store {
	t.Helper()
	s, err := NewStore(Config{CapacityBytes: capacity, Policy: policy, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// put inserts key with an 8-byte value derived from the key and publishes it.
func put(t testing.TB, s *Store, k Key) {
	t.Helper()
	e := s.Insert(k, 8)
	if e == nil {
		t.Fatalf("Insert(%d) failed", k)
	}
	binary.LittleEndian.PutUint64(e.Value(), k^0xabcdef)
	s.MarkReady(e)
	s.Decref(e)
}

func TestInsertLookup(t *testing.T) {
	s := newTestStore(t, 64<<10, EvictLRU)
	for k := Key(1); k <= 100; k++ {
		put(t, s, k)
	}
	for k := Key(1); k <= 100; k++ {
		e := s.Lookup(k)
		if e == nil {
			t.Fatalf("Lookup(%d) missed", k)
		}
		if got := binary.LittleEndian.Uint64(e.Value()); got != k^0xabcdef {
			t.Fatalf("Lookup(%d) value = %#x, want %#x", k, got, k^0xabcdef)
		}
		s.Decref(e)
	}
	if s.Lookup(999) != nil {
		t.Fatal("Lookup of absent key hit")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Hits != 100 || st.Lookups != 101 || st.Inserts != 100 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNotReadyInvisible(t *testing.T) {
	s := newTestStore(t, 4<<10, EvictLRU)
	e := s.Insert(42, 8)
	if e == nil {
		t.Fatal("insert failed")
	}
	// Before MarkReady the key must not be visible to lookups (§3.2).
	if s.Lookup(42) != nil {
		t.Fatal("NOT_READY element visible to Lookup")
	}
	s.MarkReady(e)
	s.Decref(e)
	if s.Lookup(42) == nil {
		t.Fatal("element invisible after MarkReady")
	}
}

func TestDuplicateInsertReplaces(t *testing.T) {
	s := newTestStore(t, 16<<10, EvictLRU)
	put(t, s, 7)
	e := s.Insert(7, 16)
	if e == nil {
		t.Fatal("re-insert failed")
	}
	copy(e.Value(), bytes.Repeat([]byte{0xee}, 16))
	s.MarkReady(e)
	s.Decref(e)
	if s.Len() != 1 {
		t.Fatalf("Len = %d after duplicate insert, want 1", s.Len())
	}
	got := s.Lookup(7)
	if got == nil || got.Size() != 16 {
		t.Fatalf("lookup after replace: %+v", got)
	}
	s.Decref(got)
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

func TestLookupProtectsFromEviction(t *testing.T) {
	s := newTestStore(t, 2048, EvictLRU)
	put(t, s, 1)
	held := s.Lookup(1)
	if held == nil {
		t.Fatal("setup lookup failed")
	}
	val := binary.LittleEndian.Uint64(held.Value())
	// Fill until key 1 is evicted.
	for k := Key(2); s.Contains(1); k++ {
		put(t, s, k)
	}
	// Element is unlinked but our reference keeps the memory alive and
	// uncorrupted — the paper's dangling-pointer rule.
	if got := binary.LittleEndian.Uint64(held.Value()); got != val {
		t.Fatalf("held value corrupted after eviction: %#x != %#x", got, val)
	}
	used := s.UsedBytes()
	s.Decref(held)
	if s.UsedBytes() >= used {
		t.Fatal("memory not reclaimed at final Decref of dead element")
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
	e := s.Lookup(1)
	s.Decref(e)
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
	if e := s.Insert(MaxKey+1, 8); e != nil {
		t.Fatal("Insert accepted key above 60 bits")
	}
	if e := s.Insert(1, -1); e != nil {
		t.Fatal("Insert accepted negative size")
	}
	if s.Stats().InsertErr != 2 {
		t.Fatalf("InsertErr = %d, want 2", s.Stats().InsertErr)
	}
}

func TestInsertTooLargeFails(t *testing.T) {
	s := newTestStore(t, 4<<10, EvictLRU)
	put(t, s, 1)
	if e := s.Insert(2, 1<<20); e != nil {
		t.Fatal("Insert of value larger than partition succeeded")
	}
	// The failed insert may have evicted everything (paper does not define
	// partial-failure semantics) but the store must stay consistent.
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDecrefPanicsWithoutRef(t *testing.T) {
	s := newTestStore(t, 4<<10, EvictLRU)
	e := s.Insert(1, 8)
	s.MarkReady(e)
	s.Decref(e)
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced Decref did not panic")
		}
	}()
	s.Decref(e)
}

func TestZeroSizeValue(t *testing.T) {
	s := newTestStore(t, 4<<10, EvictLRU)
	e := s.Insert(9, 0)
	if e == nil {
		t.Fatal("zero-size insert failed")
	}
	if e.Value() != nil {
		t.Fatal("zero-size value should be nil slice")
	}
	s.MarkReady(e)
	s.Decref(e)
	got := s.Lookup(9)
	if got == nil || got.Size() != 0 {
		t.Fatal("zero-size lookup failed")
	}
	s.Decref(got)
}

// TestQuickVsMapModel drives random Insert/Lookup/Delete against a Go map
// model. Capacity is large enough that no eviction occurs, so the store
// must agree with the map exactly.
func TestQuickVsMapModel(t *testing.T) {
	f := func(ops []uint32) bool {
		s := MustStore(Config{CapacityBytes: 1 << 20, Policy: EvictLRU})
		model := map[Key][]byte{}
		for _, op := range ops {
			k := Key(op % 64)
			switch (op >> 8) % 3 {
			case 0: // insert
				n := int(op>>16) % 128
				e := s.Insert(k, n)
				if e == nil {
					return false
				}
				v := make([]byte, n)
				for i := range v {
					v[i] = byte(op + uint32(i))
				}
				copy(e.Value(), v)
				s.MarkReady(e)
				s.Decref(e)
				model[k] = v
			case 1: // lookup
				e := s.Lookup(k)
				want, ok := model[k]
				if (e != nil) != ok {
					return false
				}
				if e != nil {
					if !bytes.Equal(e.Value(), want) {
						return false
					}
					s.Decref(e)
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

// TestChurnWithEviction runs a long mixed workload with eviction pressure
// and outstanding references, then checks structural invariants.
func TestChurnWithEviction(t *testing.T) {
	for _, policy := range []EvictionPolicy{EvictLRU, EvictRandom} {
		t.Run(policy.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			s := newTestStore(t, 8<<10, policy)
			var held []Element
			for step := 0; step < 20000; step++ {
				k := Key(rng.Intn(512))
				switch rng.Intn(4) {
				case 0, 1:
					size := rng.Intn(64)
					if e := s.Insert(k, size); e != nil {
						for i := range e.Value() {
							e.Value()[i] = byte(k)
						}
						s.MarkReady(e)
						s.Decref(e)
					}
				case 2:
					if e := s.Lookup(k); e != nil {
						if len(held) < 16 && rng.Intn(2) == 0 {
							held = append(held, e)
						} else {
							s.Decref(e)
						}
					}
				case 3:
					if len(held) > 0 {
						i := rng.Intn(len(held))
						// Held values must never be corrupted, linked or not.
						for _, b := range held[i].Value() {
							if b != byte(held[i].Key()) {
								t.Fatalf("held value for key %d corrupted", held[i].Key())
							}
						}
						s.Decref(held[i])
						held[i] = held[len(held)-1]
						held = held[:len(held)-1]
					}
				}
			}
			for _, e := range held {
				s.Decref(e)
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
	s := MustStore(Config{CapacityBytes: 1 << 20, Policy: EvictLRU})
	const n = 4096
	for k := Key(0); k < n; k++ {
		e := s.Insert(k, 8)
		s.MarkReady(e)
		s.Decref(e)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := s.Lookup(Key(i) % n)
		if e != nil {
			s.Decref(e)
		}
	}
}

func BenchmarkStoreInsertEvict(b *testing.B) {
	s := MustStore(Config{CapacityBytes: 256 << 10, Policy: EvictLRU})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := s.Insert(Key(i)&MaxKey, 8)
		if e != nil {
			s.MarkReady(e)
			s.Decref(e)
		}
	}
}

// TestDeleteWhileReferenced: deleting a pinned element unlinks it but its
// memory survives until the last Decref — the same rule as eviction.
func TestDeleteWhileReferenced(t *testing.T) {
	s := newTestStore(t, 16<<10, EvictLRU)
	put(t, s, 21)
	e := s.Lookup(21)
	if e == nil {
		t.Fatal("lookup failed")
	}
	val := binary.LittleEndian.Uint64(e.Value())
	if !s.Delete(21) {
		t.Fatal("delete reported absent")
	}
	if s.Contains(21) {
		t.Fatal("key visible after delete")
	}
	if s.UsedBytes() == 0 {
		t.Fatal("memory freed while a reference is held")
	}
	if got := binary.LittleEndian.Uint64(e.Value()); got != val {
		t.Fatal("pinned value corrupted by delete")
	}
	s.Decref(e)
	if s.UsedBytes() != 0 {
		t.Fatalf("UsedBytes = %d after final Decref", s.UsedBytes())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReinsertWhileOldReferenced: replacing a pinned key gives the new
// element fresh memory; the pinned old value stays intact.
func TestReinsertWhileOldReferenced(t *testing.T) {
	s := newTestStore(t, 16<<10, EvictLRU)
	put(t, s, 33)
	old := s.Lookup(33)
	oldVal := binary.LittleEndian.Uint64(old.Value())
	e := s.Insert(33, 8)
	if e == nil {
		t.Fatal("re-insert failed")
	}
	binary.LittleEndian.PutUint64(e.Value(), 0xFFFF)
	s.MarkReady(e)
	s.Decref(e)
	if got := binary.LittleEndian.Uint64(old.Value()); got != oldVal {
		t.Fatal("old pinned value corrupted by re-insert")
	}
	fresh := s.Lookup(33)
	if fresh == nil || binary.LittleEndian.Uint64(fresh.Value()) != 0xFFFF {
		t.Fatal("new value not visible")
	}
	s.Decref(fresh)
	s.Decref(old)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// recordingSink logs the change stream as strings.
type recordingSink struct{ log []string }

func (r *recordingSink) Set(k Key, v []byte, _ int64, _ uint64) {
	r.log = append(r.log, "set "+string(v))
}
func (r *recordingSink) Delete(Key) { r.log = append(r.log, "delete") }

// TestMarkReadyOfUnlinkedElementIsNotStreamed: an element replaced or
// deleted between Insert and MarkReady (its inserter was still copying)
// publishes nothing — the stream must end on the state the table serves.
func TestMarkReadyOfUnlinkedElementIsNotStreamed(t *testing.T) {
	sink := &recordingSink{}
	s := MustStore(Config{CapacityBytes: 64 << 10, Sink: sink})
	insert := func(v string) Element {
		e := s.Insert(1, len(v))
		copy(e.Value(), v)
		return e
	}
	publish := func(e Element) {
		s.MarkReady(e)
		s.Decref(e)
	}

	slow := insert("slow")
	publish(insert("fast")) // overtakes, unlinking slow
	publish(slow)
	slow = insert("doomed")
	s.Delete(1)
	publish(slow)
	if got, want := sink.log, []string{"set fast", "delete"}; !slices.Equal(got, want) {
		t.Fatalf("stream = %q, want %q", got, want)
	}
	if s.Contains(1) || s.UsedBytes() != 0 {
		t.Fatalf("key present = %v, %d bytes allocated; want an empty store", s.Contains(1), s.UsedBytes())
	}
}
