package partition

import (
	"testing"
	"testing/quick"
)

// refLRU is a simple slice-based reference model of an LRU list.
type refLRU struct {
	keys []Key // index 0 = most recently used
}

func (r *refLRU) touch(k Key) {
	r.remove(k)
	r.keys = append([]Key{k}, r.keys...)
}

func (r *refLRU) remove(k Key) {
	for i, kk := range r.keys {
		if kk == k {
			r.keys = append(r.keys[:i], r.keys[i+1:]...)
			return
		}
	}
}

func (r *refLRU) equal(got []Key) bool {
	if len(got) != len(r.keys) {
		return false
	}
	for i := range got {
		if got[i] != r.keys[i] {
			return false
		}
	}
	return true
}

// TestQuickLRUOrderMatchesModel drives random insert/lookup/delete
// sequences (capacity large enough that eviction never fires) and checks
// the store's LRU order against the reference model after every step.
func TestQuickLRUOrderMatchesModel(t *testing.T) {
	f := func(ops []uint16) bool {
		s := mustStore(Config{CapacityBytes: 1 << 20, Policy: EvictLRU})
		ref := &refLRU{}
		for _, op := range ops {
			k := Key(op % 32)
			switch (op >> 5) % 3 {
			case 0: // insert (MRU position; replaces dup)
				e := s.Insert(k, 8)
				if e == nil {
					return false
				}
				s.MarkReady(e)
				s.Decref(e)
				ref.touch(k)
			case 1: // lookup hit bumps to MRU; miss changes nothing
				e := s.Lookup(k)
				if e != nil {
					s.Decref(e)
					ref.touch(k)
				}
			case 2: // delete
				if s.Delete(k) {
					ref.remove(k)
				}
			}
			if !ref.equal(s.LRUKeys()) {
				return false
			}
		}
		return s.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEvictionIsExactlyLRUOrder: with a capacity of exactly N elements
// (no headroom: N arena blocks precisely), inserting N+k distinct keys
// evicts precisely the k least recently used.
func TestEvictionIsExactlyLRUOrder(t *testing.T) {
	const n = 16
	exact := n * int(blockFor(8+HeaderBytes))
	s := mustStore(Config{CapacityBytes: exact, Policy: EvictLRU})
	for k := Key(0); k < n; k++ {
		e := s.Insert(k, 8)
		if e == nil {
			t.Fatalf("Insert(%d) failed below capacity", k)
		}
		s.MarkReady(e)
		s.Decref(e)
	}
	if s.Stats().Evictions != 0 {
		t.Fatalf("evictions before capacity reached: %d", s.Stats().Evictions)
	}
	// Touch the even keys so odd keys become the LRU tail.
	for k := Key(0); k < n; k += 2 {
		e := s.Lookup(k)
		s.Decref(e)
	}
	// Insert n/2 new keys: exactly the n/2 least-recently-used (the odd
	// keys) must be evicted, all even keys retained.
	for k := Key(100); k < 100+n/2; k++ {
		e := s.Insert(k, 8)
		if e == nil {
			t.Fatalf("Insert(%d) failed", k)
		}
		s.MarkReady(e)
		s.Decref(e)
	}
	if got, want := s.Stats().Evictions, int64(n/2); got != want {
		t.Fatalf("evictions = %d, want exactly %d", got, want)
	}
	for k := Key(0); k < n; k += 2 {
		if !s.Contains(k) {
			t.Errorf("recently-used key %d was evicted", k)
		}
	}
	for k := Key(1); k < n; k += 2 {
		if s.Contains(k) {
			t.Errorf("LRU key %d survived", k)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRandomEvictionEventuallyCyclesKeys: under random eviction with a full
// table, repeated inserts must be able to evict any resident key (no key is
// immortal).
func TestRandomEvictionEventuallyCyclesKeys(t *testing.T) {
	const n = 8
	s := mustStore(Config{CapacityBytes: CapacityForValues(n, 8), Policy: EvictRandom, Seed: 42})
	for k := Key(0); k < n; k++ {
		e := s.Insert(k, 8)
		s.MarkReady(e)
		s.Decref(e)
	}
	evicted := map[Key]bool{}
	for i := 0; i < 10000 && len(evicted) < n; i++ {
		newKey := Key(1000 + i)
		e := s.Insert(newKey, 8)
		if e == nil {
			t.Fatal("insert failed")
		}
		s.MarkReady(e)
		s.Decref(e)
		for k := Key(0); k < n; k++ {
			if !s.Contains(k) {
				evicted[k] = true
			}
		}
	}
	if len(evicted) < n {
		t.Fatalf("after 10k random evictions only %d/%d original keys ever evicted", len(evicted), n)
	}
}

// TestCapacityForValuesTight: the helper's sizing is tight — a table sized
// for n values holds n but overflows (evicts) on n + headroom inserts.
func TestCapacityForValuesTight(t *testing.T) {
	for _, n := range []int{1, 7, 64, 500} {
		s := mustStore(Config{CapacityBytes: CapacityForValues(n, 8), Policy: EvictLRU})
		for k := Key(0); k < Key(n); k++ {
			if e := s.Insert(k, 8); e == nil {
				t.Fatalf("n=%d: Insert(%d) failed within sized capacity", n, k)
			} else {
				s.MarkReady(e)
				s.Decref(e)
			}
		}
		if ev := s.Stats().Evictions; ev != 0 {
			t.Fatalf("n=%d: %d evictions within sized capacity", n, ev)
		}
		// Overfill by 25%: evictions must start.
		for k := Key(n); k < Key(n+n/4+2); k++ {
			e := s.Insert(k, 8)
			if e == nil {
				t.Fatalf("n=%d: overfill Insert failed outright", n)
			}
			s.MarkReady(e)
			s.Decref(e)
		}
		if s.Stats().Evictions == 0 {
			t.Fatalf("n=%d: no evictions after 25%% overfill", n)
		}
	}
}
