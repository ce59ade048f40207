// Package ring implements the shared-memory message-passing buffers from
// Section 3.4 of the CPHash paper.
//
// The primary type is SPSC, the "array of buffers" design: a pre-allocated
// circular buffer with a read index, a write index, and a producer-private
// temporary write index. The producer writes messages and advances only its
// temporary index; when a whole cache line of messages has accumulated (or
// on an explicit Flush) it publishes by storing the temporary index into the
// shared write index. Symmetrically the consumer reads messages ahead of the
// shared read index and publishes the read index only after draining a full
// cache line. In the common case, per cache line of messages the producer
// and consumer exchange one buffer line plus occasional index lines — the
// paper measures ~1.5 cache misses to send and receive two messages.
//
// SingleSlot is the paper's original single-value design (one in-flight
// message per direction), kept for the ablation experiment: it is cheaper
// per message at low rate but forbids batching and pipelining.
//
// All indices are monotonically increasing uint64s; the buffer position is
// index & mask. Indices never wrap in practice (2^64 messages).
package ring

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// DefaultCapacity is the per-direction ring capacity, in messages, used by
// callers that do not specify one. It comfortably holds the paper's largest
// useful pipeline (8,192 outstanding requests spread over many servers).
const DefaultCapacity = 4096

// linePad separates hot fields onto distinct cache lines to prevent false
// sharing between the producer and consumer.
type linePad [64]byte

// SPSC is a single-producer single-consumer circular message buffer with
// cache-line-granularity index publication. The zero value is not usable;
// call NewSPSC.
type SPSC[T any] struct {
	buf  []T
	mask uint64
	// flushMask = lineMsgs-1: publish indices whenever the private index
	// crosses a multiple of lineMsgs (a cache line of messages).
	flushMask uint64

	_ linePad
	// write is the producer's published index: messages [read, write) are
	// visible to the consumer.
	write atomic.Uint64
	_     linePad
	// read is the consumer's published index: slots [..., read) may be
	// overwritten by the producer.
	read atomic.Uint64
	_    linePad

	// Producer-private state (only the producer goroutine touches these).
	tmpWrite   uint64 // next slot the producer will fill
	cachedRead uint64 // producer's last observed value of read
	_          linePad

	// Consumer-private state.
	tmpRead     uint64 // next slot the consumer will read
	cachedWrite uint64 // consumer's last observed value of write
	_           linePad
}

// NewSPSC returns an SPSC ring holding capacity messages of type T.
// capacity must be a power of two. lineMsgs is the number of messages that
// fit a 64-byte cache line (the index-publication granularity); it must be a
// power of two ≥ 1. With 16-byte messages, lineMsgs is 4; with 8-byte packed
// words it is 8.
func NewSPSC[T any](capacity, lineMsgs int) (*SPSC[T], error) {
	if capacity <= 0 || capacity&(capacity-1) != 0 {
		return nil, fmt.Errorf("ring: capacity %d is not a positive power of two", capacity)
	}
	if lineMsgs <= 0 || lineMsgs&(lineMsgs-1) != 0 {
		return nil, fmt.Errorf("ring: lineMsgs %d is not a positive power of two", lineMsgs)
	}
	if lineMsgs > capacity {
		return nil, fmt.Errorf("ring: lineMsgs %d exceeds capacity %d", lineMsgs, capacity)
	}
	return &SPSC[T]{
		buf:       make([]T, capacity),
		mask:      uint64(capacity - 1),
		flushMask: uint64(lineMsgs - 1),
	}, nil
}

// MustSPSC is NewSPSC that panics on invalid arguments; for tests and
// constant-parameter call sites.
func MustSPSC[T any](capacity, lineMsgs int) *SPSC[T] {
	r, err := NewSPSC[T](capacity, lineMsgs)
	if err != nil {
		panic(err)
	}
	return r
}

// Cap returns the ring capacity in messages.
func (r *SPSC[T]) Cap() int { return len(r.buf) }

// Produce appends one message without publishing it, reporting false when
// the ring has no free slot (the caller may Flush and retry, or back off).
// Only the single producer goroutine may call Produce/Flush/ProduceSpin.
func (r *SPSC[T]) Produce(v T) bool {
	if r.tmpWrite-r.cachedRead >= uint64(len(r.buf)) {
		// Looks full against our stale view; refresh the read index.
		r.cachedRead = r.read.Load()
		if r.tmpWrite-r.cachedRead >= uint64(len(r.buf)) {
			return false
		}
	}
	r.buf[r.tmpWrite&r.mask] = v
	r.tmpWrite++
	// Publish automatically when a whole cache line of messages is ready,
	// exactly as the paper's client threads do.
	if r.tmpWrite&r.flushMask == 0 {
		r.write.Store(r.tmpWrite)
	}
	return true
}

// ProduceSpin appends one message, spinning (with Gosched under prolonged
// fullness) until space is available. It flushes pending messages before
// spinning so the consumer can drain and make room.
func (r *SPSC[T]) ProduceSpin(v T) {
	if r.Produce(v) {
		return
	}
	r.Flush()
	spins := 0
	for !r.Produce(v) {
		spins++
		if spins > 128 {
			runtime.Gosched()
			spins = 0
		}
	}
}

// Flush publishes all privately-buffered messages to the consumer. Call it
// when a batch is complete or before waiting for replies.
func (r *SPSC[T]) Flush() {
	if r.tmpWrite != r.write.Load() {
		r.write.Store(r.tmpWrite)
	}
}

// Full reports whether Produce would fail now. Producer only.
func (r *SPSC[T]) Full() bool {
	return r.tmpWrite-r.read.Load() >= uint64(len(r.buf))
}

// Pending returns the number of produced-but-unpublished messages.
func (r *SPSC[T]) Pending() int {
	return int(r.tmpWrite - r.write.Load())
}

// Consume removes and returns the next message. ok is false when no
// published message is available. Only the single consumer goroutine may
// call Consume/ConsumeBatch.
func (r *SPSC[T]) Consume() (v T, ok bool) {
	if r.tmpRead == r.cachedWrite {
		r.cachedWrite = r.write.Load()
		if r.tmpRead == r.cachedWrite {
			return v, false
		}
	}
	v = r.buf[r.tmpRead&r.mask]
	r.tmpRead++
	// Publish the read index once a whole cache line has been drained, as
	// the paper's server threads do, or when the ring is (as far as we can
	// see) empty — otherwise a producer blocked on a full ring would wait
	// for up to a line of messages that will never arrive.
	if r.tmpRead&r.flushMask == 0 || r.tmpRead == r.cachedWrite {
		r.read.Store(r.tmpRead)
	}
	return v, true
}

// ConsumeBatch fills dst with up to len(dst) messages and returns the count.
// The read index is published once at the end of the batch, so a large batch
// costs the consumer a single index store.
func (r *SPSC[T]) ConsumeBatch(dst []T) int {
	n := 0
	for n < len(dst) {
		if r.tmpRead == r.cachedWrite {
			r.cachedWrite = r.write.Load()
			if r.tmpRead == r.cachedWrite {
				break
			}
		}
		dst[n] = r.buf[r.tmpRead&r.mask]
		r.tmpRead++
		n++
	}
	if n > 0 {
		r.read.Store(r.tmpRead)
	}
	return n
}

// ConsumeBatchAdaptive fills dst like ConsumeBatch but, when messages are
// only trickling in, briefly waits for a fuller batch: if at least one
// message is available but fewer than lowWater, it re-polls the producer
// index up to spinBudget times before draining whatever has arrived.
// Amortizing the index publication and the consumer's downstream
// per-batch costs over more messages is the paper's batching argument
// (Figure 7's batch-size sensitivity); the low-watermark and the spin
// budget bound how long a near-idle consumer waits for stragglers. An
// empty ring returns 0 immediately — adaptive batching must never slow
// the no-work sweep of a consumer polling many rings.
func (r *SPSC[T]) ConsumeBatchAdaptive(dst []T, lowWater, spinBudget int) int {
	if lowWater > len(dst) {
		lowWater = len(dst)
	}
	avail := int(r.cachedWrite - r.tmpRead)
	if avail < lowWater {
		r.cachedWrite = r.write.Load()
		avail = int(r.cachedWrite - r.tmpRead)
		if avail == 0 {
			return 0
		}
		for spin := 0; avail < lowWater && spin < spinBudget; spin++ {
			r.cachedWrite = r.write.Load()
			avail = int(r.cachedWrite - r.tmpRead)
		}
	}
	return r.ConsumeBatch(dst)
}

// Len returns the number of published, unconsumed messages. It is exact
// when called from either endpoint goroutine and a lower bound otherwise.
func (r *SPSC[T]) Len() int {
	return int(r.write.Load() - r.read.Load())
}

// Empty reports whether the ring has no published messages. Like Len it is
// advisory unless called from an endpoint.
func (r *SPSC[T]) Empty() bool { return r.Len() == 0 }

// SingleSlot is the paper's original message-passing design: a single
// in-flight value per direction. The producer stores a value and waits for
// the consumer to take it. It is kept for the §3.4 ablation — cheaper per
// message when requests arrive slowly, but it forbids batching, so under
// load the array-of-buffers design (SPSC) wins.
type SingleSlot[T any] struct {
	_    linePad
	full atomic.Uint32
	_    linePad
	val  T
	_    linePad
}

// Send publishes v, spinning until the slot is free.
func (s *SingleSlot[T]) Send(v T) {
	spins := 0
	for s.full.Load() != 0 {
		spins++
		if spins > 128 {
			runtime.Gosched()
			spins = 0
		}
	}
	s.val = v
	s.full.Store(1)
}

// Recv removes and returns the value, spinning until one is present.
func (s *SingleSlot[T]) Recv() T {
	spins := 0
	for s.full.Load() == 0 {
		spins++
		if spins > 128 {
			runtime.Gosched()
			spins = 0
		}
	}
	v := s.val
	s.full.Store(0)
	return v
}
