package ring

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewSPSCValidation(t *testing.T) {
	cases := []struct {
		capacity, lineMsgs int
		ok                 bool
	}{
		{16, 4, true},
		{1, 1, true},
		{4096, 8, true},
		{0, 4, false},
		{-8, 4, false},
		{10, 4, false}, // capacity not a power of two
		{16, 3, false}, // lineMsgs not a power of two
		{16, 0, false},
		{4, 8, false}, // lineMsgs > capacity
	}
	for _, c := range cases {
		_, err := NewSPSC[uint64](c.capacity, c.lineMsgs)
		if (err == nil) != c.ok {
			t.Errorf("NewSPSC(%d, %d): err = %v, want ok=%v", c.capacity, c.lineMsgs, err, c.ok)
		}
	}
}

func TestMustSPSCPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSPSC(3, 1) did not panic")
		}
	}()
	MustSPSC[int](3, 1)
}

// TestProduceConsumeFIFO checks single-goroutine FIFO semantics including
// wraparound several times past the capacity.
func TestProduceConsumeFIFO(t *testing.T) {
	r := MustSPSC[int](8, 4)
	next := 0
	for round := 0; round < 10; round++ {
		for i := 0; i < 5; i++ {
			if !r.Produce(next + i) {
				t.Fatalf("round %d: ring full after %d messages", round, i)
			}
		}
		r.Flush()
		for i := 0; i < 5; i++ {
			v, ok := r.Consume()
			if !ok {
				t.Fatalf("round %d: consume %d: empty", round, i)
			}
			if v != next+i {
				t.Fatalf("round %d: got %d, want %d", round, v, next+i)
			}
		}
		next += 5
	}
	if _, ok := r.Consume(); ok {
		t.Fatal("consume on empty ring succeeded")
	}
}

// TestVisibilityRequiresFlush verifies messages below a cache-line boundary
// are invisible until Flush — the batching contract from §3.4.
func TestVisibilityRequiresFlush(t *testing.T) {
	r := MustSPSC[int](16, 4)
	for i := 0; i < 3; i++ { // 3 < lineMsgs: no auto-publish
		if !r.Produce(i) {
			t.Fatal("produce failed")
		}
	}
	if _, ok := r.Consume(); ok {
		t.Fatal("consumer saw unflushed messages")
	}
	if got := r.Pending(); got != 3 {
		t.Fatalf("Pending = %d, want 3", got)
	}
	r.Flush()
	if got := r.Pending(); got != 0 {
		t.Fatalf("Pending after flush = %d, want 0", got)
	}
	for i := 0; i < 3; i++ {
		v, ok := r.Consume()
		if !ok || v != i {
			t.Fatalf("got (%d, %v), want (%d, true)", v, ok, i)
		}
	}
}

// TestAutoFlushOnLineBoundary verifies the producer publishes automatically
// once a full cache line of messages has accumulated.
func TestAutoFlushOnLineBoundary(t *testing.T) {
	r := MustSPSC[int](16, 4)
	for i := 0; i < 4; i++ {
		r.Produce(i)
	}
	// No explicit Flush: the 4th message crossed the line boundary.
	if got := r.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4 (auto-flush missing)", got)
	}
}

// TestFullRing verifies Produce fails (rather than overwriting) at capacity
// and succeeds again after the consumer frees a line.
func TestFullRing(t *testing.T) {
	r := MustSPSC[int](8, 4)
	for i := 0; i < 8; i++ {
		if !r.Produce(i) {
			t.Fatalf("produce %d failed below capacity", i)
		}
	}
	if r.Produce(99) {
		t.Fatal("produce succeeded on a full ring")
	}
	// Drain one full line so the read index gets published.
	for i := 0; i < 4; i++ {
		if v, ok := r.Consume(); !ok || v != i {
			t.Fatalf("consume got (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if !r.Produce(99) {
		t.Fatal("produce failed after consumer drained a line")
	}
}

// TestLazyReadPublication: consuming less than a cache line on a non-empty
// ring must not publish the read index (that is the §3.4 server behaviour),
// but draining to empty must.
func TestLazyReadPublication(t *testing.T) {
	r := MustSPSC[int](16, 4)
	for i := 0; i < 8; i++ {
		r.Produce(i)
	}
	r.Flush()
	r.Consume() // 1 of 8: below line boundary, ring non-empty
	if got := r.read.Load(); got != 0 {
		t.Fatalf("read index published early: %d", got)
	}
	for i := 0; i < 3; i++ {
		r.Consume()
	}
	if got := r.read.Load(); got != 4 {
		t.Fatalf("read index after a full line = %d, want 4", got)
	}
	for i := 0; i < 4; i++ {
		r.Consume()
	}
	if got := r.read.Load(); got != 8 {
		t.Fatalf("read index after drain = %d, want 8", got)
	}
}

func TestConsumeBatch(t *testing.T) {
	r := MustSPSC[int](32, 4)
	for i := 0; i < 10; i++ {
		r.Produce(i)
	}
	r.Flush()
	dst := make([]int, 6)
	if n := r.ConsumeBatch(dst); n != 6 {
		t.Fatalf("first batch n = %d, want 6", n)
	}
	for i, v := range dst {
		if v != i {
			t.Fatalf("dst[%d] = %d, want %d", i, v, i)
		}
	}
	if n := r.ConsumeBatch(dst); n != 4 {
		t.Fatalf("second batch n = %d, want 4", n)
	}
	if n := r.ConsumeBatch(dst); n != 0 {
		t.Fatalf("empty batch n = %d, want 0", n)
	}
	if got := r.read.Load(); got != 10 {
		t.Fatalf("read index = %d, want 10", got)
	}
}

// TestConcurrentStress pushes a long integer sequence through the ring from
// a producer goroutine to a consumer goroutine and verifies order and
// completeness. Run with -race to validate the happens-before edges.
func TestConcurrentStress(t *testing.T) {
	const total = 100000
	r := MustSPSC[uint64](256, 4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < total; i++ {
			r.ProduceSpin(i)
		}
		r.Flush()
	}()
	for want := uint64(0); want < total; {
		v, ok := r.Consume()
		if !ok {
			runtime.Gosched() // single-CPU boxes need the producer scheduled
			continue
		}
		if v != want {
			t.Errorf("out of order: got %d, want %d", v, want)
			break
		}
		want++
	}
	wg.Wait()
}

// TestConcurrentBatchStress is the same but drains with ConsumeBatch.
func TestConcurrentBatchStress(t *testing.T) {
	const total = 100000
	r := MustSPSC[uint64](128, 8)
	go func() {
		for i := uint64(0); i < total; i++ {
			r.ProduceSpin(i)
		}
		r.Flush()
	}()
	var got uint64
	buf := make([]uint64, 32)
	for got < total {
		n := r.ConsumeBatch(buf)
		if n == 0 {
			runtime.Gosched()
			continue
		}
		for i := 0; i < n; i++ {
			if buf[i] != got {
				t.Fatalf("out of order: got %d, want %d", buf[i], got)
			}
			got++
		}
	}
}

// TestQuickFIFO is a property test: any interleaving of produce/flush/
// consume operations driven by a random script behaves exactly like a
// FIFO queue model.
func TestQuickFIFO(t *testing.T) {
	f := func(script []byte) bool {
		r := MustSPSC[int](16, 4)
		var model []int // reference queue of published messages
		var unpublished []int
		next := 0
		for _, op := range script {
			switch op % 3 {
			case 0: // produce
				if r.Produce(next) {
					if r.Pending() == 0 {
						// auto-flush happened: everything published
						model = append(model, unpublished...)
						model = append(model, next)
						unpublished = nil
					} else {
						unpublished = append(unpublished, next)
					}
					next++
				}
			case 1: // flush
				r.Flush()
				model = append(model, unpublished...)
				unpublished = nil
			case 2: // consume
				v, ok := r.Consume()
				if len(model) == 0 {
					if ok {
						return false
					}
				} else {
					if !ok || v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleSlot(t *testing.T) {
	var s SingleSlot[int]
	if _, ok := s.TryRecv(); ok {
		t.Fatal("TryRecv on empty slot succeeded")
	}
	if !s.TrySend(7) {
		t.Fatal("TrySend on empty slot failed")
	}
	if s.TrySend(8) {
		t.Fatal("TrySend on full slot succeeded")
	}
	v, ok := s.TryRecv()
	if !ok || v != 7 {
		t.Fatalf("TryRecv = (%d, %v), want (7, true)", v, ok)
	}
}

func TestSingleSlotConcurrent(t *testing.T) {
	const total = 50000
	var s SingleSlot[uint64]
	go func() {
		for i := uint64(0); i < total; i++ {
			s.Send(i)
		}
	}()
	for want := uint64(0); want < total; want++ {
		if v := s.Recv(); v != want {
			t.Fatalf("got %d, want %d", v, want)
		}
	}
}

func BenchmarkSPSCRoundTrip(b *testing.B) {
	r := MustSPSC[uint64](4096, 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var n int
		for n < b.N {
			if _, ok := r.Consume(); ok {
				n++
			} else {
				runtime.Gosched()
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ProduceSpin(uint64(i))
	}
	r.Flush()
	<-done
}

func BenchmarkSingleSlotRoundTrip(b *testing.B) {
	var s SingleSlot[uint64]
	done := make(chan struct{})
	go func() {
		defer close(done)
		for n := 0; n < b.N; n++ {
			s.Recv()
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Send(uint64(i))
	}
	<-done
}

// TestLenAndEmpty: advisory occupancy reporting.
func TestLenAndEmpty(t *testing.T) {
	r := MustSPSC[int](16, 4)
	if !r.Empty() || r.Len() != 0 || r.Cap() != 16 {
		t.Fatal("fresh ring wrong shape")
	}
	for i := 0; i < 5; i++ {
		r.Produce(i)
	}
	r.Flush()
	if r.Len() != 5 || r.Empty() {
		t.Fatalf("Len = %d, Empty = %v", r.Len(), r.Empty())
	}
	r.Consume()
	if r.Len() != 5 {
		// The read index publishes lazily (below a line, non-empty ring),
		// so Len still reports 5 — document the advisory semantics.
		t.Fatalf("Len = %d; advisory Len should still be 5 before index publication", r.Len())
	}
}

func TestConsumeBatchAdaptiveEmptyReturnsImmediately(t *testing.T) {
	r := MustSPSC[int](64, 4)
	dst := make([]int, 16)
	if n := r.ConsumeBatchAdaptive(dst, 4, 1<<20); n != 0 {
		t.Fatalf("empty ring: got %d messages, want 0", n)
	}
}

func TestConsumeBatchAdaptiveDrainsBelowWatermarkAfterBudget(t *testing.T) {
	r := MustSPSC[int](64, 4)
	r.Produce(1)
	r.Flush()
	dst := make([]int, 16)
	// One message, watermark 8: the spin budget expires with no producer
	// activity and the single message must still come out.
	if n := r.ConsumeBatchAdaptive(dst, 8, 64); n != 1 || dst[0] != 1 {
		t.Fatalf("got %d messages (dst[0]=%d), want the 1 pending message", n, dst[0])
	}
}

func TestConsumeBatchAdaptiveWaitsForWatermark(t *testing.T) {
	r := MustSPSC[int](1024, 4)
	for i := 0; i < 2; i++ {
		r.Produce(i)
	}
	r.Flush()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 2; i < 8; i++ {
			r.Produce(i)
		}
		r.Flush()
	}()
	<-done // producer finished: the adaptive consumer must see ≥ lowWater
	dst := make([]int, 16)
	if n := r.ConsumeBatchAdaptive(dst, 8, 1<<20); n != 8 {
		t.Fatalf("got %d messages, want all 8 once the watermark was met", n)
	}
	for i := 0; i < 8; i++ {
		if dst[i] != i {
			t.Fatalf("dst[%d] = %d, want %d (FIFO violated)", i, dst[i], i)
		}
	}
}

func TestConsumeBatchAdaptiveWatermarkClippedToDst(t *testing.T) {
	r := MustSPSC[int](64, 4)
	for i := 0; i < 3; i++ {
		r.Produce(i)
	}
	r.Flush()
	// lowWater 16 > len(dst) 3 must clip, not spin the full budget waiting
	// for messages dst could never hold.
	dst := make([]int, 3)
	if n := r.ConsumeBatchAdaptive(dst, 16, 1<<30); n != 3 {
		t.Fatalf("got %d messages, want 3", n)
	}
}

func TestConcurrentAdaptiveBatchStress(t *testing.T) {
	const total = 200000
	r := MustSPSC[uint64](256, 8)
	var sum uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]uint64, 64)
		got := 0
		for got < total {
			n := r.ConsumeBatchAdaptive(buf, 8, 32)
			for i := 0; i < n; i++ {
				sum += buf[i]
			}
			got += n
		}
	}()
	var want uint64
	for i := 0; i < total; i++ {
		r.ProduceSpin(uint64(i))
		want += uint64(i)
	}
	r.Flush()
	<-done
	if sum != want {
		t.Fatalf("adaptive consumer summed %d, want %d (lost or duplicated messages)", sum, want)
	}
}
