package partition

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic expiry tests.
type fakeClock struct{ now int64 }

func (c *fakeClock) Now() int64      { return c.now }
func (c *fakeClock) Advance(d int64) { c.now += d }

// modelEntry mirrors one live element in the reference model.
type modelEntry struct {
	value  byte  // FillValue seed; entries here are 8 bytes of this
	expire int64 // 0 = never
}

// TestTTLExpiryBasics: inserted TTL entries are visible before their
// deadline, invisible at and after it, and counted in Stats.Expired.
func TestTTLExpiryBasics(t *testing.T) {
	clk := &fakeClock{now: 1000}
	s := mustStore(Config{CapacityBytes: CapacityForValues(64, 8), Clock: clk.Now})

	put := func(k Key, ttl time.Duration) {
		if !s.Put(k, []byte("12345678"), s.Deadline(ttl), 0) {
			t.Fatalf("Put(%d, ttl %v) failed", k, ttl)
		}
	}
	put(1, 0)                    // never expires
	put(2, 500*time.Nanosecond)  // expires at 1500
	put(3, 2000*time.Nanosecond) // expires at 3000

	if !s.Contains(1) || !s.Contains(2) || !s.Contains(3) {
		t.Fatal("entries should be visible before their deadlines")
	}
	clk.Advance(500) // now = 1500: key 2 is exactly at its deadline
	if s.Contains(2) {
		t.Error("key 2 visible at its deadline")
	}
	if hit(s, 2) {
		t.Error("Get(2) hit after expiry")
	}
	if got := s.Stats().Expired; got != 1 {
		t.Errorf("Expired = %d, want 1 (lazy reclaim on lookup)", got)
	}
	if !s.Contains(1) || !s.Contains(3) {
		t.Error("unexpired entries vanished")
	}
	// A TTL so large the deadline overflows means "never expires", not
	// "already expired".
	put(4, time.Duration(math.MaxInt64))
	if !s.Contains(4) {
		t.Error("key 4 with overflowing TTL deadline expired instantly")
	}
	// Delete of an expired key reports absent and counts as expiry.
	clk.Advance(10_000)
	if s.Delete(3) {
		t.Error("Delete(3) returned true for an expired key")
	}
	st := s.Stats()
	if st.Expired != 2 || st.Deletes != 0 {
		t.Errorf("Expired=%d Deletes=%d, want 2 and 0", st.Expired, st.Deletes)
	}
	if !s.Contains(1) {
		t.Error("no-TTL entry expired")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSweepExpiredReclaims: a full sweep removes every expired element
// without lookups touching them, and eviction prefers expired elements
// (sweep-before-evict) when a full partition needs room.
func TestSweepExpiredReclaims(t *testing.T) {
	clk := &fakeClock{now: 1}
	s := mustStore(Config{CapacityBytes: CapacityForValues(128, 8), Clock: clk.Now})
	for k := Key(0); k < 100; k++ {
		ttl := time.Duration(0)
		if k%2 == 0 {
			ttl = 100 * time.Nanosecond
		}
		if !s.Put(k, []byte("12345678"), s.Deadline(ttl), 0) {
			t.Fatalf("insert %d failed", k)
		}
	}
	clk.Advance(1_000)
	if n := s.SweepExpired(0); n != 50 {
		t.Fatalf("SweepExpired removed %d, want 50", n)
	}
	if got := s.Stats().Expired; got != 50 {
		t.Errorf("Expired = %d, want 50", got)
	}
	if s.Len() != 50 {
		t.Errorf("Len = %d, want 50", s.Len())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEvictionSweepsExpiredFirst: when a full partition must make room,
// expired elements are reclaimed before any live element is evicted.
func TestEvictionSweepsExpiredFirst(t *testing.T) {
	clk := &fakeClock{now: 1}
	s := mustStore(Config{CapacityBytes: CapacityForValues(32, 8), Clock: clk.Now})
	fill := func(k Key, ttl time.Duration) bool {
		return s.Put(k, []byte("12345678"), s.Deadline(ttl), 0)
	}
	// Fill the store with short-TTL entries until the first eviction
	// fires — the store is then at physical capacity.
	var n Key
	for ; s.Stats().Evictions == 0; n++ {
		if !fill(n, 10*time.Nanosecond) {
			t.Fatalf("insert %d failed", n)
		}
	}
	evictionsAtFull := s.Stats().Evictions
	clk.Advance(1_000) // everything still stored is now expired
	// Half a round of no-TTL inserts must be satisfied by sweeping the
	// expired elements, never by evicting: the Evictions counter must not
	// move while Expired does. (Half, so refilling cannot legitimately
	// reach capacity again.)
	for k := Key(10_000); k < 10_000+n/2; k++ {
		if !fill(k, 0) {
			t.Fatalf("insert %d failed with expired space available", k)
		}
	}
	st := s.Stats()
	if st.Expired == 0 {
		t.Error("no expirations; eviction did not sweep expired elements")
	}
	if st.Evictions != evictionsAtFull {
		t.Errorf("Evictions rose %d → %d with expired elements available", evictionsAtFull, st.Evictions)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyTTLDeleteEvictVsModel drives a Store through a long random
// interleaving of inserts (with and without TTL), lookups, deletes, clock
// advances, and sweeps, comparing every observable against a map+clock
// reference model. The store is sized so eviction fires regularly, which
// makes the model one-sided for presence (evicted keys disappear early)
// but exact for absence: an expired or deleted key must never be served.
func TestPropertyTTLDeleteEvictVsModel(t *testing.T) {
	for _, policy := range []EvictionPolicy{EvictLRU, EvictRandom} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			clk := &fakeClock{now: 1}
			// Tight capacity: ~48 elements for a 128-key space → constant
			// eviction pressure interleaved with TTL expiry and deletes.
			s := mustStore(Config{
				CapacityBytes: CapacityForValues(48, 8),
				Policy:        policy,
				Seed:          11,
				Clock:         clk.Now,
			})
			model := map[Key]modelEntry{}
			const keySpace = 128
			expired := func(m modelEntry) bool { return m.expire != 0 && clk.now >= m.expire }

			steps := 40_000
			if testing.Short() {
				steps = 8_000
			}
			for i := 0; i < steps; i++ {
				k := Key(rng.Intn(keySpace))
				switch op := rng.Intn(10); {
				case op < 4: // insert, half with TTL
					var ttl time.Duration
					if rng.Intn(2) == 0 {
						ttl = time.Duration(1 + rng.Intn(2000)) // 1–2000ns on the fake clock
					}
					fill := byte(i)
					if !s.Put(k, bytes.Repeat([]byte{fill}, 8), s.Deadline(ttl), 0) {
						t.Fatalf("step %d: Put(%d, ttl %v) failed; store can always evict", i, k, ttl)
					}
					m := modelEntry{value: fill}
					if ttl > 0 {
						m.expire = clk.now + int64(ttl)
					}
					model[k] = m
				case op < 7: // lookup
					got, _, hit := s.Get(k, nil)
					m, inModel := model[k]
					if hit {
						if !inModel || expired(m) {
							t.Fatalf("step %d: Get(%d) hit a key the model says is absent/expired", i, k)
						}
						if got[0] != m.value {
							t.Fatalf("step %d: Get(%d) = fill %d, model says %d", i, k, got[0], m.value)
						}
					} else {
						// The store reclaimed an expired key lazily, or
						// (legal for an unexpired one) evicted it.
						delete(model, k)
					}
				case op < 8: // delete
					got := s.Delete(k)
					m, inModel := model[k]
					if got && (!inModel || expired(m)) {
						t.Fatalf("step %d: Delete(%d) found a key the model says is absent/expired", i, k)
					}
					delete(model, k)
				case op < 9: // clock advance
					clk.Advance(int64(rng.Intn(500)))
				default: // sweep a few buckets
					s.SweepExpired(8)
				}
				if i%1024 == 0 {
					if err := s.CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
					// The store must never hold a key the model dropped as
					// deleted (evictions only shrink the store further).
					if s.Len() > len(model) {
						t.Fatalf("step %d: store holds %d elements, model allows at most %d", i, s.Len(), len(model))
					}
				}
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.Expired == 0 || st.Deletes == 0 || st.Evictions == 0 {
				t.Errorf("interleaving did not exercise all paths: %+v", st)
			}
		})
	}
}
