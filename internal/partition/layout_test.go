package partition

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestPointerFree is the layout gate: a partition keeps no per-element heap
// objects — header records live in the arena block each element already
// charges — and its hot operations allocate nothing.
func TestPointerFree(t *testing.T) {
	const n = 1 << 16
	s := mustStore(Config{CapacityBytes: CapacityForValues(2*n, 8), Seed: 1})
	val := []byte("abcdefgh")
	insert := func(k Key) {
		if !s.Put(k, val, 0, 0) {
			t.Fatalf("Put(%d) failed", k)
		}
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
		t.Errorf("put of a new key: %v allocs/op, want 0", a)
	}
	k := Key(0)
	dst := make([]byte, 0, len(val))
	if a := testing.AllocsPerRun(1000, func() {
		if _, _, ok := s.Get(k, dst[:0]); !ok {
			t.Fatalf("Get(%d) missed", k)
		}
		k++
	}); a != 0 {
		t.Errorf("get into a pre-sized dst: %v allocs/op, want 0", a)
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
// boundary tag, so every record starts at 8 mod 16: a 40 B header lies in
// one line when it starts at 8 or 24 mod 64 and spans two at 40 or 56, so
// Prefetch's second pass loads its first and last byte to bring in both.
func TestRecordLineSpan(t *testing.T) {
	s := mustStore(Config{CapacityBytes: 1 << 20, Seed: 1})
	val := make([]byte, 300)
	for k := Key(0); k < 4000; k++ {
		s.Put(k, val[:int(k*37)%300], 0, 0)
		if k%5 == 0 {
			s.Delete(k / 2) // free blocks, so later records reuse split ones
		}
	}
	for _, b := range allocatedBlocks(t, s) {
		if r := b + hdrSize; r%16 != 8 {
			t.Fatalf("record at %d: offset %d mod 16, want 8", r, r%16)
		}
	}
}

// TestSmallElementsFillOneLine pins what the 40 B header buys: an element
// of 8 or 16 value bytes — boundary tag, record and value — is one 64 B
// block, so in a store of only such values whose slab is 64-aligned, every
// element lies inside one cache line, through overwrites, deletes and LRU
// eviction.
func TestSmallElementsFillOneLine(t *testing.T) {
	s := mustStore(Config{CapacityBytes: 1 << 16, Seed: 1}) // 1 024 blocks
	if base := uintptr(unsafe.Pointer(unsafe.SliceData(s.mem))); base%64 != 0 {
		t.Fatalf("slab base %#x is not 64-aligned", base)
	}
	val := make([]byte, 16)
	for k := Key(0); k < 4000; k++ {
		mustPut(t, s, k%1500, val[:8+8*int(k%2)])
		if k%7 == 0 {
			s.Delete(k / 3)
		}
	}
	if s.Stats().Evictions == 0 {
		t.Fatal("no evictions: the slab never filled")
	}
	for _, b := range allocatedBlocks(t, s) {
		end := b + hdrSize + HeaderBytes + s.rec(b+hdrSize).u32(recSize)
		if b/64 != (end-1)/64 {
			t.Fatalf("element [%d, %d) crosses a 64 B line", b, end)
		}
	}
}

// allocatedBlocks returns the offsets of the store's allocated arena
// blocks, failing t unless there is one per linked element.
func allocatedBlocks(t *testing.T, s *Store) []uint32 {
	t.Helper()
	var out []uint32
	a := s.arena
	for b := uint32(0); int(b) < len(a.mem); b += a.size(b) {
		if a.allocated(b) {
			out = append(out, b)
		}
	}
	if len(out) != s.Len() {
		t.Fatalf("walked %d allocated blocks, store holds %d elements", len(out), s.Len())
	}
	return out
}
