package partition

import (
	"runtime"
	"testing"
)

// TestPointerFree is the layout gate: a partition keeps no per-element heap
// objects — header records live in the arena block each element already
// charges — and its hot operations allocate nothing.
func TestPointerFree(t *testing.T) {
	const n = 1 << 16
	s := mustStore(Config{CapacityBytes: CapacityForValues(2*n, 8), Seed: 1})
	insert := func(k Key) {
		e := s.Insert(k, 8)
		if e == nil {
			t.Fatalf("Insert(%d) failed", k)
		}
		copy(e.Value(), "abcdefgh")
		s.MarkReady(e)
		s.Decref(e)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for k := Key(0); k < n; k++ {
		insert(k)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	if grew := int64(after.HeapObjects) - int64(before.HeapObjects); grew >= 64 {
		t.Fatalf("inserting %d keys added %d heap objects; want < 64", n, grew)
	}

	next := Key(n)
	if a := testing.AllocsPerRun(1000, func() { insert(next); next++ }); a != 0 {
		t.Errorf("insert of a new key: %v allocs/op, want 0", a)
	}
	k := Key(0)
	if a := testing.AllocsPerRun(1000, func() {
		if e := s.Lookup(k); e != nil {
			s.Decref(e)
		}
		k++
	}); a != 0 {
		t.Errorf("lookup: %v allocs/op, want 0", a)
	}
	batch := make([]Key, 40) // more than Prefetch covers
	for i := range batch {
		batch[i] = Key(i * 3000) // hits, then misses past the inserted keys
	}
	if a := testing.AllocsPerRun(1000, func() { s.Prefetch(batch) }); a != 0 {
		t.Errorf("prefetch: %v allocs/op, want 0", a)
	}
	d := Key(0)
	if a := testing.AllocsPerRun(1000, func() { s.Delete(d); d++ }); a != 0 {
		t.Errorf("delete: %v allocs/op, want 0", a)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRecordLineSpan pins where a header record sits in a cache line. An
// arena block is 16 B-aligned and its record follows the block's 8 B
// boundary tag, so every record starts at 8 mod 16: a 64 B header never
// fits one line, and Prefetch's second pass loads its first and last byte
// to bring in both of the lines it spans.
func TestRecordLineSpan(t *testing.T) {
	s := mustStore(Config{CapacityBytes: 1 << 20, Seed: 1})
	for k := Key(0); k < 4000; k++ {
		size := int(k*37) % 300
		if e := s.Insert(k, size); e != nil {
			s.MarkReady(e)
			s.Decref(e)
		}
		if k%5 == 0 {
			s.Delete(k / 2) // free blocks, so later records reuse split ones
		}
	}
	a := s.arena
	records := 0
	for b := uint32(0); int(b) < len(a.mem); b += a.size(b) {
		if !a.allocated(b) {
			continue
		}
		if r := b + hdrSize; r%16 != 8 {
			t.Fatalf("record at %d: offset %d mod 16, want 8", r, r%16)
		}
		records++
	}
	if records != s.Len() {
		t.Fatalf("walked %d records, store holds %d", records, s.Len())
	}
}
