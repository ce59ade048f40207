package partition

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cphash/internal/obs"
)

// TestPrefetchIsInvisible runs one random stream of batches on twin
// stores. One store is prefetched before every batch, the other never, and
// every result and every piece of observable state must stay identical:
// lookup values and versions, insert, delete and RMW outcomes, Stats, heat,
// LRU order, used bytes and the invariants. Batches run from empty to more
// keys than Prefetch covers, over keys of which about half are absent, with
// TTLs on one fake clock.
func TestPrefetchIsInvisible(t *testing.T) {
	for _, policy := range []EvictionPolicy{EvictLRU, EvictRandom} {
		for _, buckets := range []int{0, 8} { // 8: long chains
			t.Run(fmt.Sprintf("%v/buckets=%d", policy, buckets), func(t *testing.T) {
				prefetchTwins(t, policy, buckets)
			})
		}
	}
}

func prefetchTwins(t *testing.T, policy EvictionPolicy, buckets int) {
	const keySpace = 600 // the stores hold about 300 of them
	clk := &fakeClock{now: 1}
	newTwin := func() *Store {
		return mustStore(Config{
			CapacityBytes: CapacityForValues(300, 40),
			Buckets:       buckets,
			Policy:        policy,
			Seed:          7,
			Clock:         clk.Now,
			Metrics:       &obs.PartitionMetrics{Heat: &obs.SlotHeat{}},
		})
	}
	pre, plain := newTwin(), newTwin()
	pre.Prefetch(nil)
	pre.Prefetch([]Key{1, 2, 3}) // an empty store
	rng := rand.New(rand.NewSource(int64(policy)*10 + int64(buckets)))
	keys := make([]Key, 0, 40)
	var a, b []byte
	for batch := 0; batch < 250; batch++ {
		keys = keys[:0]
		for n := rng.Intn(41); len(keys) < n; {
			keys = append(keys, Key(rng.Intn(keySpace)))
		}
		pre.Prefetch(keys)
		// The last quarter is not executed: in a batch Prefetch covers whole
		// it is prefetched only, so a Prefetch that moved or touched what it
		// loaded is not masked by the operations after it.
		for i, k := range keys[:len(keys)-len(keys)/4] {
			what := fmt.Sprintf("batch %d op %d key %d", batch, i, k)
			switch r := rng.Intn(10); {
			case r < 5:
				a, b = lookupCopy(pre, k, a[:0]), lookupCopy(plain, k, b[:0])
			case r < 8:
				size, ttl := rng.Intn(80), int64(0)
				if rng.Intn(4) == 0 {
					ttl = clk.now + 1 + int64(rng.Intn(200))
				}
				a, b = insertFilled(pre, k, size, ttl, a[:0]), insertFilled(plain, k, size, ttl, b[:0])
			case r < 9:
				a = fmt.Append(a[:0], pre.Delete(k))
				b = fmt.Append(b[:0], plain.Delete(k))
			default:
				a, b = appendRMW(pre, k, a[:0]), appendRMW(plain, k, b[:0])
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("%s: prefetched store gave %q, plain store %q", what, a, b)
			}
		}
		clk.Advance(int64(rng.Intn(20)))
		if err := sameState(pre, plain); err != nil {
			t.Fatalf("after batch %d (%d keys): %v", batch, len(keys), err)
		}
	}
	if pre.Stats().Evictions == 0 || pre.Stats().Expired == 0 {
		t.Fatalf("stream evicted %d and expired %d elements; want both > 0", pre.Stats().Evictions, pre.Stats().Expired)
	}
}

// lookupCopy appends a lookup's outcome to dst: hit, version and value.
func lookupCopy(s *Store, k Key, dst []byte) []byte {
	e := s.Lookup(k)
	if e == nil {
		return append(dst, "miss"...)
	}
	dst = fmt.Appendf(dst, "hit v%d ", e.Version())
	dst = append(dst, e.Value()...)
	s.Decref(e)
	return dst
}

// insertFilled stores size bytes derived from k, as a server does, and
// appends the outcome to dst.
func insertFilled(s *Store, k Key, size int, expireAt int64, dst []byte) []byte {
	e := s.InsertExpire(k, size, expireAt)
	if e == nil {
		return append(dst, "no space"...)
	}
	for i := range e.Value() {
		e.Value()[i] = byte(k) + byte(i)
	}
	s.MarkReady(e)
	dst = fmt.Appendf(dst, "stored v%d", e.Version())
	s.Decref(e)
	return dst
}

// appendRMW appends a byte to k's value and appends the outcome to dst.
func appendRMW(s *Store, k Key, dst []byte) []byte {
	req := RMWReq{Op: RMWAppend, Val: []byte{'+'}}
	s.RMW(k, &req)
	return fmt.Appendf(dst, "%v v%d", req.Status, req.OutVer)
}

// sameState compares everything a caller can observe of two stores.
func sameState(x, y *Store) error {
	for _, s := range []*Store{x, y} {
		if err := s.CheckInvariants(); err != nil {
			return err
		}
	}
	switch {
	case x.Stats() != y.Stats():
		return fmt.Errorf("stats %+v, want %+v", x.Stats(), y.Stats())
	case x.Metrics().Heat.Snapshot() != y.Metrics().Heat.Snapshot():
		return fmt.Errorf("heat differs")
	case !slices.Equal(x.LRUKeys(), y.LRUKeys()):
		return fmt.Errorf("LRU order %v, want %v", x.LRUKeys(), y.LRUKeys())
	case x.UsedBytes() != y.UsedBytes():
		return fmt.Errorf("used bytes %d, want %d", x.UsedBytes(), y.UsedBytes())
	}
	return nil
}

// BenchmarkStoreBatch prices Prefetch where it pays: a table far larger
// than the caches, served a batch at a time the way a CPHASH server serves
// one ring batch. 2^19 keys of 8 B, uniform, 32-key batches, 30 % inserts
// (of keys already present, so the size holds) and lookups copied out, as
// core's execute does. ns/op is per key; the prefetch variants include the
// cost of Prefetch itself.
func BenchmarkStoreBatch(b *testing.B) {
	const (
		keys  = 1 << 19
		batch = 32
		ops   = 1 << 20 // pre-drawn, replayed wrapping
	)
	for _, policy := range []EvictionPolicy{EvictLRU, EvictRandom} {
		s := mustStore(Config{CapacityBytes: CapacityForValues(keys, 8), Policy: policy, Seed: 1})
		val := []byte("abcdefgh")
		for k := Key(0); k < keys; k++ {
			insertVal(s, k, val)
		}
		rng := rand.New(rand.NewSource(1))
		stream := make([]Key, ops)
		insert := make([]bool, ops)
		for i := range stream {
			stream[i] = Key(rng.Intn(keys))
			insert[i] = rng.Intn(10) < 3
		}
		for _, prefetch := range []bool{false, true} {
			name := fmt.Sprintf("%v/plain", policy)
			if prefetch {
				name = fmt.Sprintf("%v/prefetch", policy)
			}
			b.Run(name, func(b *testing.B) {
				var dst []byte
				b.ResetTimer()
				for i := 0; i < b.N; i += batch {
					at := i % ops
					ks := stream[at : at+batch]
					if prefetch {
						s.Prefetch(ks)
					}
					for j, k := range ks {
						if insert[at+j] {
							insertVal(s, k, val)
						} else if e := s.Lookup(k); e != nil {
							dst = append(dst[:0], e.Value()...)
							s.Decref(e)
						}
					}
				}
			})
		}
	}
}

// insertVal stores val under k the way core's execute does.
func insertVal(s *Store, k Key, val []byte) {
	if e := s.Insert(k, len(val)); e != nil {
		copy(e.Value(), val)
		s.MarkReady(e)
		s.Decref(e)
	}
}
