package partition

import (
	"bytes"
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
		if !s.Put(Key(k), bytes.Repeat([]byte{byte(k)}, k%7+1), s.Deadline(ttl), 0) {
			t.Fatalf("insert %d failed", k)
		}
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
		entries, _, next, done := s.AppendScan(nil, nil, cursor, 0, 17, nil)
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

func TestAppendScanSkipsExpired(t *testing.T) {
	s, clk := scanStore(t, 90)
	// Advance past the TTL of every key ≤ 59 that has one (ttl = key+1 s).
	*clk += int64(60 * time.Second)

	entries, _, _, done := s.AppendScan(nil, nil, 0, 0, 0, nil)
	if !done {
		t.Fatal("unbounded scan did not finish")
	}
	for _, got := range entries {
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
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendScanFilter(t *testing.T) {
	s, _ := scanStore(t, 300)
	even := func(k Key) bool { return k%2 == 0 }
	entries, _, _, done := s.AppendScan(nil, nil, 0, 0, 0, even)
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
		entries, _, next, done := s.AppendScan(nil, nil, cursor, 3, 0, nil)
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
	mustPut(t, s, 7, []byte("abcdefgh"))
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

// slabSizes are the value sizes the slab tests store: empty, around the
// header and cache-line sizes, and past 64 KiB.
var slabSizes = []int{0, 1, 7, 8, 63, 64, 65, 1000, 4096, 1 << 15, 1<<16 + 1}

// slabStore holds one entry per size in slabSizes, repeated reps times,
// each value a key-dependent byte pattern.
func slabStore(t *testing.T, reps int) (*Store, map[Key][]byte) {
	t.Helper()
	total := 0
	for _, n := range slabSizes {
		total += n + HeaderBytes + 64
	}
	s := mustStore(Config{CapacityBytes: 2 * reps * total})
	want := map[Key][]byte{}
	for r := 0; r < reps; r++ {
		for i, n := range slabSizes {
			k := Key(r*len(slabSizes) + i)
			v := make([]byte, n)
			for j := range v {
				v[j] = byte(uint64(k)*31 + uint64(j))
			}
			if !s.Put(k, v, 0, 0) {
				t.Fatalf("put of %d B failed", n)
			}
			want[k] = v
		}
	}
	return s, want
}

// TestAppendScanSlabMatchesFreshCopies: values copied onto one reused slab
// equal the store's own copies (Get) at every size, batch after batch.
func TestAppendScanSlabMatchesFreshCopies(t *testing.T) {
	s, want := slabStore(t, 3)
	var entries []ScanEntry
	var vals []byte
	seen := 0
	for cursor, done := 0, false; !done; {
		entries, vals, cursor, done = s.AppendScan(entries[:0], vals[:0], cursor, 0, 5, nil)
		for _, e := range entries {
			ref, _, ok := s.Get(e.Key, nil)
			if !ok || !bytes.Equal(e.Value, ref) || !bytes.Equal(e.Value, want[e.Key]) {
				t.Fatalf("key %d: scanned %d B differ from the stored %d B", e.Key, len(e.Value), len(want[e.Key]))
			}
			seen++
		}
	}
	if seen != len(want) {
		t.Fatalf("scanned %d entries, stored %d", seen, len(want))
	}
}

// TestAppendScanValuesAreClipped: an entry's Value has no spare capacity,
// so appending to the returned slab, or to one entry's value, cannot
// write into an entry already returned.
func TestAppendScanValuesAreClipped(t *testing.T) {
	s, want := slabStore(t, 1)
	vals := make([]byte, 0, 1<<20) // room to spare: appends stay in place
	entries, vals, _, done := s.AppendScan(nil, vals, 0, 0, 0, nil)
	if !done || len(entries) != len(want) {
		t.Fatalf("scan returned %d entries (done %v), want %d", len(entries), done, len(want))
	}
	for _, e := range entries {
		if cap(e.Value) != len(e.Value) {
			t.Fatalf("key %d: value len %d cap %d", e.Key, len(e.Value), cap(e.Value))
		}
		_ = append(e.Value, 0xAA, 0xBB, 0xCC)
	}
	_ = append(vals, bytes.Repeat([]byte{0xEE}, 1<<16)...)
	more, _, _, _ := s.AppendScan(entries, vals, 0, 0, 0, nil)
	for _, e := range more[:len(entries)] {
		if !bytes.Equal(e.Value, want[e.Key]) {
			t.Fatalf("key %d: value changed by a later append to the slab", e.Key)
		}
	}
}
