package locks

import (
	"sync"
	"testing"
)

// makers enumerates the spinlock and its sync.Mutex reference under a
// stable name.
func makers() map[string]func() sync.Locker {
	return map[string]func() sync.Locker{
		"Spinlock": func() sync.Locker { return new(Spinlock) },
		"Mutex":    func() sync.Locker { return new(sync.Mutex) },
	}
}

// TestMutualExclusion hammers a plain counter from many goroutines; any
// mutual-exclusion failure shows up as a lost update (and as a data race
// under -race).
func TestMutualExclusion(t *testing.T) {
	const (
		goroutines = 8
		iters      = 20000
	)
	for name, mk := range makers() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			l := mk()
			var counter int
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						l.Lock()
						counter++
						l.Unlock()
					}
				}()
			}
			wg.Wait()
			if want := goroutines * iters; counter != want {
				t.Fatalf("lost updates: counter = %d, want %d", counter, want)
			}
		})
	}
}

// TestSequentialLockUnlock exercises repeated uncontended acquire/release.
func TestSequentialLockUnlock(t *testing.T) {
	for name, mk := range makers() {
		t.Run(name, func(t *testing.T) {
			l := mk()
			for i := 0; i < 1000; i++ {
				l.Lock()
				l.Unlock()
			}
		})
	}
}

// TestSpinlockTryLock checks TryLock succeeds when free and fails when held.
func TestSpinlockTryLock(t *testing.T) {
	var l Spinlock
	if !l.TryLock() {
		t.Fatal("TryLock on a free lock failed")
	}
	if l.TryLock() {
		t.Fatal("TryLock on a held lock succeeded")
	}
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("TryLock after Unlock failed")
	}
	l.Unlock()
}

func benchLock(b *testing.B, mk func() sync.Locker) {
	l := mk()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l.Lock()
			l.Unlock()
		}
	})
}

func BenchmarkSpinlock(b *testing.B) { benchLock(b, func() sync.Locker { return new(Spinlock) }) }
func BenchmarkMutex(b *testing.B)    { benchLock(b, func() sync.Locker { return new(sync.Mutex) }) }
