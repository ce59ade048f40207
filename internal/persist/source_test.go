package persist

import (
	"bytes"
	"testing"

	"cphash/internal/core"
	"cphash/internal/lockhash"
	"cphash/internal/partition"
)

// sourceValue is the value the Source tests store under key k: sizes
// from 0 B to 1 KiB, mostly small, as in a mixed-size cache.
func sourceValue(k uint64) []byte {
	n := int(k % 97)
	if k%10 == 0 {
		n = 1024
	}
	return bytes.Repeat([]byte{byte(k)}, n)
}

// checkSourceWarm scans the whole table twice through src into one
// reused entries slice and slab, checking every value, then requires a
// warm call for a batch of up to 1024 entries (a batch ends on a bucket
// boundary) to allocate at most maxAllocs.
func checkSourceWarm(t *testing.T, src Source, n int, maxAllocs float64) {
	t.Helper()
	var entries []partition.ScanEntry
	var vals []byte
	for pass := 0; pass < 2; pass++ {
		seen := 0
		for cursor, done := uint64(0), false; !done; {
			var err error
			entries, vals, cursor, done, err = src(cursor, snapScanMax, entries[:0], vals[:0])
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if !bytes.Equal(e.Value, sourceValue(e.Key)) {
					t.Fatalf("key %d: scanned %d B, stored %d B", e.Key, len(e.Value), len(sourceValue(e.Key)))
				}
			}
			seen += len(entries)
		}
		if seen != n {
			t.Fatalf("pass %d scanned %d entries, want %d", pass, seen, n)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		var err error
		entries, vals, _, _, err = src(0, snapScanMax, entries[:0], vals[:0])
		if err != nil || len(entries) < snapScanMax*3/4 {
			t.Fatalf("warm call returned %d entries (err %v), want about %d", len(entries), err, snapScanMax)
		}
	})
	t.Logf("a warm Source call: %d entries, %.1f allocations", len(entries), allocs)
	if allocs > maxAllocs {
		t.Fatalf("a warm %d-entry Source call allocates %.1f times, want ≤ %.0f", snapScanMax, allocs, maxAllocs)
	}
}

// TestCoreSourceWarmAllocs: a snapshot scan of a CPHASH table reuses the
// snapshotter's slab; what remains is the one scan job a call posts to
// the partition servers.
func TestCoreSourceWarmAllocs(t *testing.T) {
	const n = 4096
	tb := core.MustNew(core.Config{Partitions: 2, CapacityBytes: 16 << 20, MaxClients: 1, Seed: 1})
	defer tb.Close()
	c, err := tb.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < n; k++ {
		c.Release(c.InsertAsync(k, sourceValue(k)))
	}
	c.WaitAll()
	c.Close()
	checkSourceWarm(t, CoreSource(tb), n, 2)
}

// TestLockHashSourceWarmAllocs: a snapshot scan of a LOCKHASH table into
// the reused slab allocates nothing once warm.
func TestLockHashSourceWarmAllocs(t *testing.T) {
	const n = 4096
	tb := lockhash.MustNew(lockhash.Config{Partitions: 4, CapacityBytes: 16 << 20, Seed: 1})
	for k := uint64(0); k < n; k++ {
		if !tb.Put(k, sourceValue(k)) {
			t.Fatalf("put %d failed", k)
		}
	}
	checkSourceWarm(t, LockHashSource(tb), n, 1)
}
