package partition

import (
	"bytes"
	"math/rand"
	"testing"
)

// chainPos returns where k's record sits in its bucket chain (0 = head)
// and the chain's length, or -1 when k is not linked.
func chainPos(s *Store, k Key) (pos, n int) {
	pos = -1
	for r := s.buckets[s.bucketIndex(k)]; r != 0; r = s.rec(r).u32(recHNext) {
		if s.rec(r).key() == k {
			pos = n
		}
		n++
	}
	return pos, n
}

// TestChainCollisionsVsModel squeezes every key into one or two bucket
// chains, so each unlink has to find its predecessor along a long singly
// linked chain, and checks random Puts (new keys and overwrites), Deletes,
// Gets, TTL expiry, SweepExpired, PurgeBuckets and eviction under a tight
// capacity against a map model, with CheckInvariants after every step.
// Deletes and overwrites must unlink at the head, in the middle and at the
// tail of a chain.
func TestChainCollisionsVsModel(t *testing.T) {
	for _, buckets := range []int{1, 2} {
		for _, policy := range []EvictionPolicy{EvictLRU, EvictRandom} {
			chainModel(t, buckets, policy)
		}
	}
}

func chainModel(t *testing.T, buckets int, policy EvictionPolicy) {
	const (
		keys   = 48
		maxVal = 40
		steps  = 3000
	)
	type entry struct {
		val    []byte
		expire int64
	}
	rng := rand.New(rand.NewSource(int64(buckets)*10 + int64(policy)))
	clk := &fakeClock{now: 1}
	s := mustStore(Config{
		CapacityBytes: CapacityForValues(16, 24), // ~20 elements; 48 keys evict
		Buckets:       buckets,
		Policy:        policy,
		Seed:          7,
		Clock:         clk.Now,
	})
	model := map[Key]entry{}
	visible := func(k Key) (entry, bool) {
		e, ok := model[k]
		if ok && e.expire != 0 && clk.now >= e.expire {
			return entry{}, false
		}
		return e, ok
	}
	var unlinkedAt [3]int // head, middle, tail
	noteUnlink := func(k Key) {
		switch pos, n := chainPos(s, k); {
		case pos < 0:
		case pos == 0:
			unlinkedAt[0]++
		case pos == n-1:
			unlinkedAt[2]++
		default:
			unlinkedAt[1]++
		}
	}
	for step := 0; step < steps; step++ {
		evictions := s.Stats().Evictions
		k := Key(rng.Intn(keys))
		switch op := rng.Intn(10); op {
		case 0, 1, 2, 3:
			val := make([]byte, rng.Intn(maxVal+1))
			rng.Read(val)
			var expire int64
			if rng.Intn(4) == 0 {
				expire = clk.now + 1 + rng.Int63n(100)
			}
			noteUnlink(k)
			delete(model, k)
			if !s.Put(k, val, expire, 0) {
				t.Fatalf("step %d: Put(%d, %d B) failed", step, k, len(val))
			}
			model[k] = entry{val, expire}
		case 4:
			_, want := visible(k)
			if want {
				noteUnlink(k)
			}
			if got := s.Delete(k); got != want {
				t.Fatalf("step %d: Delete(%d) = %v, model %v", step, k, got, want)
			}
			delete(model, k)
		case 5:
			want, ok := visible(k)
			got, _, hit := s.Get(k, nil)
			if hit != ok || !bytes.Equal(got, want.val) {
				t.Fatalf("step %d: Get(%d) = %q %v, model %q %v", step, k, got, hit, want.val, ok)
			}
		case 6:
			clk.Advance(rng.Int63n(40))
		case 7:
			s.SweepExpired(rng.Intn(3)) // 0 sweeps every bucket
		case 8:
			b := rng.Intn(buckets)
			parity := Key(rng.Intn(2))
			filter := func(k Key) bool { return k&1 == parity }
			want := 0
			for k := range model {
				if int(s.bucketIndex(k)) == b && filter(k) {
					if _, ok := visible(k); ok {
						want++
					}
					delete(model, k)
				}
			}
			if got, _, _ := s.PurgeBuckets(b, 1, filter); got != want {
				t.Fatalf("step %d: PurgeBuckets(%d) removed %d, model %d", step, b, got, want)
			}
		case 9:
			if _, ok := visible(k); s.Contains(k) != ok {
				t.Fatalf("step %d: Contains(%d) = %v, model %v", step, k, !ok, ok)
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("step %d (buckets %d, %v): %v", step, buckets, policy, err)
		}
		// The store serves exactly the model's visible entries; one may be
		// missing only after a step that evicted, and leaves the model.
		entries, _, _, _ := s.AppendScan(nil, nil, 0, 0, 0, nil)
		served := map[Key]bool{}
		for _, se := range entries {
			want, ok := visible(se.Key)
			if !ok || !bytes.Equal(se.Value, want.val) {
				t.Fatalf("step %d: store serves %d = %q, model %q %v", step, se.Key, se.Value, want.val, ok)
			}
			served[se.Key] = true
		}
		for k := range model {
			if _, ok := visible(k); ok && !served[k] {
				if s.Stats().Evictions == evictions {
					t.Fatalf("step %d: key %d vanished in a step that evicted nothing", step, k)
				}
				delete(model, k)
			}
		}
	}
	if s.Stats().Evictions == 0 || s.Stats().Expired == 0 {
		t.Fatalf("buckets %d, %v: %+v; want evictions and expiries", buckets, policy, s.Stats())
	}
	for i, where := range []string{"head", "middle", "tail"} {
		if unlinkedAt[i] == 0 {
			t.Fatalf("buckets %d, %v: no delete or overwrite unlinked at the %s of a chain (%v)", buckets, policy, where, unlinkedAt)
		}
	}
}
