package partition

import (
	"testing"
	"time"
)

// scanStore builds a store with a fake clock and n ready entries keyed
// 0..n-1, value = byte(key) repeated key%7+1 times, every third key with a
// TTL of (key+1) seconds.
func scanStore(t *testing.T, n int) (*Store, *int64) {
	t.Helper()
	now := int64(1_000_000_000)
	s := mustStore(Config{
		CapacityBytes: CapacityForValues(n+8, 8),
		Clock:         func() int64 { return now },
	})
	// The clock variable escapes into the Config closure; its address lets
	// tests advance time.
	clk := &now
	for k := 0; k < n; k++ {
		var ttl time.Duration
		if k%3 == 0 {
			ttl = time.Duration(k+1) * time.Second
		}
		e := s.InsertTTL(Key(k), k%7+1, ttl)
		if e == nil {
			t.Fatalf("insert %d failed", k)
		}
		for i := range e.Value() {
			e.Value()[i] = byte(k)
		}
		s.MarkReady(e)
		s.Decref(e)
	}
	return s, clk
}

func TestAppendScanVisitsEveryLiveEntryOnce(t *testing.T) {
	const n = 500
	s, _ := scanStore(t, n)

	// Iterate in small batches, whole-bucket granularity.
	seen := map[Key]int{}
	cursor := 0
	for {
		entries, next, done := s.AppendScan(nil, cursor, 0, 17, nil)
		for _, e := range entries {
			seen[e.Key]++
			if len(e.Value) != int(e.Key)%7+1 {
				t.Fatalf("key %d: value len %d", e.Key, len(e.Value))
			}
			for _, b := range e.Value {
				if b != byte(e.Key) {
					t.Fatalf("key %d: corrupt value byte %d", e.Key, b)
				}
			}
			wantTTL := time.Duration(0)
			if e.Key%3 == 0 {
				wantTTL = time.Duration(e.Key+1) * time.Second
			}
			if e.TTL != wantTTL {
				t.Fatalf("key %d: TTL %v, want %v", e.Key, e.TTL, wantTTL)
			}
		}
		if done {
			break
		}
		if next == cursor && len(entries) == 0 {
			t.Fatal("scan made no progress")
		}
		cursor = next
	}
	if len(seen) != n {
		t.Fatalf("saw %d distinct keys, want %d", len(seen), n)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("key %d seen %d times", k, c)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendScanSkipsExpiredAndNotReady(t *testing.T) {
	s, clk := scanStore(t, 90)
	// Advance past the TTL of every key ≤ 59 that has one (ttl = key+1 s).
	*clk += int64(60 * time.Second)

	// Add a NOT_READY element: it must be invisible to the scan.
	e := s.Insert(Key(1000), 4)
	if e == nil {
		t.Fatal("insert failed")
	}

	entries, _, done := s.AppendScan(nil, 0, 0, 0, nil)
	if !done {
		t.Fatal("unbounded scan did not finish")
	}
	for _, got := range entries {
		if got.Key == 1000 {
			t.Fatal("scan returned a NOT_READY element")
		}
		if got.Key%3 == 0 && got.Key < 60 {
			t.Fatalf("scan returned expired key %d", got.Key)
		}
		if got.Key%3 == 0 && got.TTL <= 0 {
			t.Fatalf("key %d: non-positive remaining TTL %v", got.Key, got.TTL)
		}
	}
	// 90 keys, every third (30) had a TTL; 20 of those (0..57) expired.
	if len(entries) != 70 {
		t.Fatalf("scan returned %d entries, want 70", len(entries))
	}
	s.MarkReady(e)
	s.Decref(e)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendScanFilter(t *testing.T) {
	s, _ := scanStore(t, 300)
	even := func(k Key) bool { return k%2 == 0 }
	entries, _, done := s.AppendScan(nil, 0, 0, 0, even)
	if !done {
		t.Fatal("scan did not finish")
	}
	if len(entries) != 150 {
		t.Fatalf("filtered scan returned %d entries, want 150", len(entries))
	}
	for _, e := range entries {
		if e.Key%2 != 0 {
			t.Fatalf("filter leaked key %d", e.Key)
		}
	}
}

func TestAppendScanBucketBudget(t *testing.T) {
	s, _ := scanStore(t, 200)
	total := 0
	cursor := 0
	rounds := 0
	for {
		entries, next, done := s.AppendScan(nil, cursor, 3, 0, nil)
		total += len(entries)
		rounds++
		if done {
			break
		}
		if next != cursor+3 {
			t.Fatalf("bucket budget not honored: cursor %d -> %d", cursor, next)
		}
		cursor = next
	}
	if total != 200 {
		t.Fatalf("budgeted scan saw %d entries, want 200", total)
	}
	if want := (s.NumBuckets() + 2) / 3; rounds != want {
		t.Fatalf("rounds = %d, want %d", rounds, want)
	}
}

func TestPurgeBuckets(t *testing.T) {
	s, _ := scanStore(t, 400)
	odd := func(k Key) bool { return k%2 == 1 }

	removed := 0
	cursor := 0
	for {
		r, next, done := s.PurgeBuckets(cursor, 5, odd)
		removed += r
		if done {
			break
		}
		cursor = next
	}
	if removed != 200 {
		t.Fatalf("purged %d entries, want 200", removed)
	}
	if s.Len() != 200 {
		t.Fatalf("%d entries remain, want 200", s.Len())
	}
	for k := 0; k < 400; k++ {
		want := k%2 == 0
		if got := s.Contains(Key(k)); got != want {
			t.Fatalf("Contains(%d) = %v after purge", k, got)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Purging everything leaves an empty, reusable store.
	if r, _, done := s.PurgeBuckets(0, 0, nil); !done || r != 200 {
		t.Fatalf("full purge: removed %d done %v", r, done)
	}
	if s.Len() != 0 {
		t.Fatalf("store not empty after full purge: %d", s.Len())
	}
	e := s.Insert(7, 8)
	if e == nil {
		t.Fatal("insert after purge failed")
	}
	s.MarkReady(e)
	s.Decref(e)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPurgeBucketsCountsExpiredSeparately(t *testing.T) {
	s, clk := scanStore(t, 30)
	*clk += int64(100 * time.Second) // all 10 TTL'd keys expire
	removed, _, done := s.PurgeBuckets(0, 0, nil)
	if !done {
		t.Fatal("purge did not finish")
	}
	if removed != 20 {
		t.Fatalf("purge removed %d live entries, want 20", removed)
	}
	if st := s.Stats(); st.Expired != 10 {
		t.Fatalf("Expired = %d, want 10", st.Expired)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
