// Package locks provides the lock LOCKHASH puts around each partition: a
// test-and-set spinlock with bounded backoff (Section 6.2 of the CPHash
// paper).
//
// The paper's observation is that an *uncontended* spinlock costs one cache
// miss to acquire and none to release, whereas Anderson's scalable queue
// lock [Anderson 1990] costs a constant two misses to acquire and one to
// release — so LOCKHASH prefers a spinlock plus enough partitions (4,096)
// to keep contention low. BenchmarkSpinlock and BenchmarkMutex in this
// package's tests price the spinlock against sync.Mutex.
package locks

import (
	"runtime"
	"sync/atomic"
)

// Spinlock is a test-and-set spinlock with proportional backoff. This is the
// lock LOCKHASH uses per partition: one cache miss to acquire when
// uncontended, zero to release (the releasing store hits the line already in
// the owner's cache in Modified state).
type Spinlock struct {
	state atomic.Uint32
	_     [48]byte // one lock per cache line when embedded in arrays
}

// maxBackoff bounds the spin backoff so that a briefly-held lock is
// reacquired quickly even after long contention episodes.
const maxBackoff = 64

// Lock acquires the spinlock, spinning with test-and-test-and-set plus
// bounded exponential backoff.
func (l *Spinlock) Lock() {
	backoff := 1
	for {
		if l.state.Load() == 0 && l.state.CompareAndSwap(0, 1) {
			return
		}
		for i := 0; i < backoff; i++ {
			spinPause()
		}
		if backoff < maxBackoff {
			backoff <<= 1
		} else {
			// Under heavy contention let the scheduler run someone else;
			// Go has no monitor/mwait to park on.
			runtime.Gosched()
		}
	}
}

// TryLock attempts to acquire the lock without spinning and reports whether
// it succeeded.
func (l *Spinlock) TryLock() bool {
	return l.state.Load() == 0 && l.state.CompareAndSwap(0, 1)
}

// Unlock releases the spinlock. It must only be called by the holder.
func (l *Spinlock) Unlock() {
	l.state.Store(0)
}

// spinPause burns a few cycles politely inside spin loops. Go offers no
// portable PAUSE intrinsic; a tiny call that the compiler cannot elide is
// the conventional substitute.
//
//go:noinline
func spinPause() {}
