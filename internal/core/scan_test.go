package core

import (
	"sync"
	"testing"
	"time"
)

// TestScanEntriesVisitsEverything: entries inserted through a client are
// all visible to a cursor-chained scan, exactly once, with values intact
// and TTLs preserved.
func TestScanEntriesVisitsEverything(t *testing.T) {
	tb := MustNew(Config{
		Partitions:    4,
		CapacityBytes: 1 << 20,
		MaxClients:    1,
		Seed:          1,
	})
	defer tb.Close()
	c := tb.MustClient(0)

	const n = 2000
	for k := uint64(0); k < n; k++ {
		var ttl time.Duration
		if k%5 == 0 {
			ttl = time.Hour
		}
		if !c.PutTTL(k, []byte{byte(k), byte(k >> 8)}, ttl) {
			t.Fatalf("put %d failed", k)
		}
	}
	// Read-back barrier: a lookup reply FIFO-follows the final Ready on
	// each (client, partition) ring, so after this loop every insert is
	// published and the scan below is deterministic.
	var dst []byte
	for k := uint64(0); k < n; k++ {
		if _, found := c.Get(k, dst[:0]); !found {
			t.Fatalf("read-back of %d missed", k)
		}
	}

	seen := map[Key]int{}
	cursor := uint64(0)
	for {
		entries, _, next, done, err := tb.ScanEntries(cursor, 64, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			seen[e.Key]++
			if len(e.Value) != 2 || e.Value[0] != byte(e.Key) || e.Value[1] != byte(e.Key>>8) {
				t.Fatalf("key %d: bad value %v", e.Key, e.Value)
			}
			if e.Key%5 == 0 {
				if e.TTL <= 0 || e.TTL > time.Hour {
					t.Fatalf("key %d: TTL %v", e.Key, e.TTL)
				}
			} else if e.TTL != 0 {
				t.Fatalf("key %d: unexpected TTL %v", e.Key, e.TTL)
			}
		}
		if done {
			break
		}
		cursor = next
	}
	if len(seen) != n {
		t.Fatalf("saw %d keys, want %d", len(seen), n)
	}
	for k, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("key %d seen %d times", k, cnt)
		}
	}
	c.Close()
}

// TestScanEntriesFilterAndPurge: a filtered scan sees only matching keys;
// a filtered purge removes exactly those keys and leaves the rest
// readable.
func TestScanEntriesFilterAndPurge(t *testing.T) {
	tb := MustNew(Config{
		Partitions:    2,
		CapacityBytes: 1 << 20,
		MaxClients:    1,
		Seed:          7,
	})
	defer tb.Close()
	c := tb.MustClient(0)

	const n = 1000
	for k := uint64(0); k < n; k++ {
		if !c.Put(k, []byte{1}) {
			t.Fatalf("put %d failed", k)
		}
	}
	odd := func(k Key) bool { return k%2 == 1 }

	var got int
	cursor := uint64(0)
	for {
		entries, _, next, done, err := tb.ScanEntries(cursor, 100, odd, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Key%2 != 1 {
				t.Fatalf("filter leaked key %d", e.Key)
			}
		}
		got += len(entries)
		if done {
			break
		}
		cursor = next
	}
	if got != n/2 {
		t.Fatalf("filtered scan saw %d entries, want %d", got, n/2)
	}

	removed := 0
	cursor = 0
	for {
		r, next, done, err := tb.PurgeEntries(cursor, odd)
		if err != nil {
			t.Fatal(err)
		}
		removed += r
		if done {
			break
		}
		cursor = next
	}
	if removed != n/2 {
		t.Fatalf("purge removed %d, want %d", removed, n/2)
	}
	var dst []byte
	for k := uint64(0); k < n; k++ {
		_, found := c.Get(k, dst[:0])
		if want := k%2 == 0; found != want {
			t.Fatalf("Get(%d) found=%v after purge", k, found)
		}
	}
	c.Close()
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestScanConcurrentWithTraffic: scans posted from several goroutines
// while a client hammers the table must neither deadlock nor corrupt the
// partitions (single-owner execution at sweep boundaries).
func TestScanConcurrentWithTraffic(t *testing.T) {
	tb := MustNew(Config{
		Partitions:    4,
		CapacityBytes: 1 << 20,
		MaxClients:    1,
		Seed:          3,
	})
	defer tb.Close()
	c := tb.MustClient(0)
	for k := uint64(0); k < 500; k++ {
		if !c.Put(k, []byte{byte(k)}) {
			t.Fatalf("put %d failed", k)
		}
	}

	stop := make(chan struct{})
	trafficDone := make(chan struct{})
	go func() { // traffic on the single client handle
		defer close(trafficDone)
		var dst []byte
		k := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.Put(k%500, []byte{byte(k)})
			dst, _ = c.Get((k*31)%500, dst[:0])
			k++
		}
	}()

	var scanners sync.WaitGroup
	for g := 0; g < 3; g++ {
		scanners.Add(1)
		go func() {
			defer scanners.Done()
			for round := 0; round < 20; round++ {
				cursor := uint64(0)
				for {
					_, _, next, done, err := tb.ScanEntries(cursor, 32, nil, nil, nil)
					if err != nil {
						t.Error(err)
						return
					}
					if done {
						break
					}
					cursor = next
				}
			}
		}()
	}
	scanned := make(chan struct{})
	go func() { scanners.Wait(); close(scanned) }()
	select {
	case <-scanned:
	case <-time.After(30 * time.Second):
		t.Fatal("scan under traffic did not finish in 30s (deadlock?)")
	}
	close(stop)
	<-trafficDone
	c.Close()
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
