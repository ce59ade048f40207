package partition

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewArenaValidation(t *testing.T) {
	if _, err := NewArena(0); err == nil {
		t.Error("NewArena(0) succeeded")
	}
	if _, err := NewArena(minBlock - 1); err == nil {
		t.Error("NewArena below one block succeeded")
	}
	a, err := NewArena(1 << 20)
	if err != nil {
		t.Fatalf("NewArena(1MB): %v", err)
	}
	if a.Capacity() != 1<<20 {
		t.Errorf("Capacity = %d, want %d", a.Capacity(), 1<<20)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	a := mustArena(4096)
	off, ok := a.Alloc(100)
	if !ok {
		t.Fatal("Alloc(100) failed on fresh arena")
	}
	buf := a.mem[off : off+100]
	for i := range buf {
		buf[i] = byte(i)
	}
	if a.Used() == 0 {
		t.Fatal("Used is zero after allocation")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	a.Free(off)
	if a.Used() != 0 {
		t.Fatalf("Used = %d after final free, want 0", a.Used())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocExhaustion(t *testing.T) {
	a := mustArena(1024)
	var offs []uint32
	for {
		off, ok := a.Alloc(64)
		if !ok {
			break
		}
		offs = append(offs, off)
	}
	if len(offs) == 0 {
		t.Fatal("no allocations succeeded")
	}
	// Arena must refuse rather than overcommit.
	if _, ok := a.Alloc(64); ok {
		t.Fatal("Alloc succeeded on exhausted arena")
	}
	for _, off := range offs {
		a.Free(off)
	}
	if a.Used() != 0 {
		t.Fatalf("Used = %d after freeing everything", a.Used())
	}
	// All blocks must have coalesced back into one; a full-size alloc
	// must now succeed.
	if _, ok := a.Alloc(a.Capacity() - hdrSize); !ok {
		t.Fatal("coalescing failed: full-arena alloc impossible after frees")
	}
}

func TestCoalescingOrders(t *testing.T) {
	// Free three adjacent blocks in every order; each order must leave one
	// coalesced block.
	for _, order := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		a := mustArena(1024)
		var offs [3]uint32
		for i := range offs {
			off, ok := a.Alloc(100)
			if !ok {
				t.Fatal("setup alloc failed")
			}
			offs[i] = off
		}
		for _, i := range order {
			a.Free(offs[i])
			if err := a.CheckInvariants(); err != nil {
				t.Fatalf("order %v after freeing %d: %v", order, i, err)
			}
		}
		if a.Used() != 0 {
			t.Fatalf("order %v: Used = %d", order, a.Used())
		}
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a := mustArena(1024)
	off, _ := a.Alloc(32)
	a.Free(off)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.Free(off)
}

func TestAllocZeroAndNegative(t *testing.T) {
	a := mustArena(1024)
	if _, ok := a.Alloc(-1); ok {
		t.Fatal("Alloc(-1) succeeded")
	}
	off, ok := a.Alloc(0)
	if !ok {
		t.Fatal("Alloc(0) failed")
	}
	a.Free(off)
	if a.Used() != 0 {
		t.Fatal("leak after zero-size alloc/free")
	}
}

// TestAllocRandomized drives a random alloc/free workload and checks
// invariants, non-overlap, and content integrity throughout.
func TestAllocRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := mustArena(64 << 10)
	type block struct {
		off  uint32
		n    int
		fill byte
	}
	var live []block
	for step := 0; step < 5000; step++ {
		if rng.Intn(2) == 0 || len(live) == 0 {
			n := rng.Intn(700)
			off, ok := a.Alloc(n)
			if ok {
				fill := byte(step)
				b := a.mem[off : int(off)+n]
				for i := range b {
					b[i] = fill
				}
				live = append(live, block{off, n, fill})
			}
		} else {
			i := rng.Intn(len(live))
			bl := live[i]
			b := a.mem[bl.off : int(bl.off)+bl.n]
			for j := range b {
				if b[j] != bl.fill {
					t.Fatalf("step %d: block at %d corrupted at byte %d", step, bl.off, j)
				}
			}
			a.Free(bl.off)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if step%500 == 0 {
			if err := a.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	for _, bl := range live {
		a.Free(bl.off)
	}
	if a.Used() != 0 {
		t.Fatalf("leak: Used = %d", a.Used())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAllocSizes property: any sequence of sizes in range allocates
// without overlap and frees without leaking.
func TestQuickAllocSizes(t *testing.T) {
	f := func(sizes []uint16) bool {
		a := mustArena(1 << 20)
		var offs []uint32
		var ns []int
		for _, s := range sizes {
			n := int(s) % 2048
			if off, ok := a.Alloc(n); ok {
				offs = append(offs, off)
				ns = append(ns, n)
			}
		}
		// Overlap check via interval sort-free pairwise (small N).
		for i := range offs {
			for j := i + 1; j < len(offs); j++ {
				aStart, aEnd := int(offs[i]), int(offs[i])+ns[i]
				bStart, bEnd := int(offs[j]), int(offs[j])+ns[j]
				if aStart < bEnd && bStart < aEnd {
					return false
				}
			}
		}
		for _, off := range offs {
			a.Free(off)
		}
		return a.Used() == 0 && a.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockFor(t *testing.T) {
	cases := []struct {
		n    int
		want uint32
	}{
		{0, minBlock},
		{1, minBlock},
		{24, minBlock},
		{25, 48},
		{40, 48},
		{56, 64},
		{100, 112},
	}
	for _, c := range cases {
		if got := blockFor(c.n); got != c.want {
			t.Errorf("blockFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestClassFor(t *testing.T) {
	if classFor(minBlock) != 0 {
		t.Errorf("classFor(minBlock) = %d, want 0", classFor(minBlock))
	}
	if classFor(63) != 0 {
		t.Errorf("classFor(63) = %d, want 0", classFor(63))
	}
	if classFor(64) != 1 {
		t.Errorf("classFor(64) = %d, want 1", classFor(64))
	}
	if classFor(1<<31) != numClasses-1 {
		t.Errorf("classFor(2^31) = %d, want %d", classFor(1<<31), numClasses-1)
	}
}

func BenchmarkArenaAllocFree(b *testing.B) {
	a := mustArena(16 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off, ok := a.Alloc(64)
		if !ok {
			b.Fatal("alloc failed")
		}
		a.Free(off)
	}
}
