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
	s := MustStore(Config{CapacityBytes: CapacityForValues(2*n, 8), Seed: 1})
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
	d := Key(0)
	if a := testing.AllocsPerRun(1000, func() { s.Delete(d); d++ }); a != 0 {
		t.Errorf("delete: %v allocs/op, want 0", a)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
