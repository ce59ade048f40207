// Package partition implements the per-partition key/value store from
// Section 3.1 of the CPHash paper: a chained hash table whose elements carry
// a reference count, an LRU list for eviction, a NOT_READY/READY insert
// protocol, and a single-threaded memory allocator.
//
// An element is one arena block, as in the paper: a HeaderBytes (64 B,
// one cache line) header record — key, size, version, expiry, reference
// count, flags, bucket and LRU links — followed by the value. Buckets and
// links are uint32 record offsets into the arena, so a partition's memory
// is two pointer-free slices — the arena and the bucket array — however
// many entries it holds. Callers name an element by a slice view of its
// block (Element) or by its offset (Store.Ref), never by a heap object.
//
// A partition is owned by exactly one goroutine at a time and is therefore
// completely lock-free: CPHASH gives each partition to a dedicated server
// goroutine, while LOCKHASH wraps each partition in a spinlock. Both hash
// tables share this code, exactly as the paper's implementations share their
// partition code (Section 5).
package partition

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Arena is a single-threaded segregated-fit memory allocator over one
// contiguous byte slab. It is the reproduction of the paper's "standard
// single-threaded memory allocator" used by server threads to allocate
// elements (Section 3.2): because a partition is touched by one server
// only, no synchronization is needed, and because the slab is fixed, the
// partition's byte capacity is enforced physically — an allocation failure
// is what triggers LRU eviction.
//
// Layout: the slab is a sequence of blocks. Each block starts with an
// 8-byte boundary tag: size (uint32, total block bytes, low bit = allocated)
// followed by prevSize (uint32, total bytes of the physically preceding
// block; 0 for the first block). Free blocks keep doubly-linked free-list
// pointers (two uint32 offsets) at the start of their payload, so the
// minimum block is 16 bytes. Freeing coalesces with both physical
// neighbours, which keeps fragmentation bounded under the hash table's
// steady-state churn.
type Arena struct {
	mem []byte
	// freeHead[c] is the offset of the first free block in class c, or
	// nilOff. Class c holds blocks with total size in [1<<(c+minShift),
	// 1<<(c+minShift+1)).
	freeHead [numClasses]uint32
	used     int64 // bytes currently allocated, including headers
	allocs   int64 // lifetime successful Alloc calls
	frees    int64 // lifetime Free calls
}

const (
	hdrSize    = 8
	align      = 16
	minBlock   = 32 // hdr + free-list links, rounded to align
	minShift   = 5  // log2(minBlock)
	numClasses = 27 // supports blocks up to 2^31 bytes
	nilOff     = ^uint32(0)

	sizeMask = ^uint32(1)
	allocBit = uint32(1)
)

// NewArena returns an arena managing capacity bytes. Capacity is rounded
// down to the allocation alignment; it must be at least one minimum block.
func NewArena(capacity int) (*Arena, error) {
	capacity &^= align - 1
	if capacity < minBlock {
		return nil, fmt.Errorf("partition: arena capacity %d below minimum %d", capacity, minBlock)
	}
	if int64(capacity) > int64(^uint32(0)>>1) {
		return nil, fmt.Errorf("partition: arena capacity %d exceeds 2 GiB addressing limit", capacity)
	}
	a := &Arena{mem: make([]byte, capacity)}
	for i := range a.freeHead {
		a.freeHead[i] = nilOff
	}
	a.setSize(0, uint32(capacity), false)
	a.setPrevSize(0, 0)
	a.pushFree(0)
	return a, nil
}

// MustArena is NewArena that panics on error, for constant-size call sites.
func MustArena(capacity int) *Arena {
	a, err := NewArena(capacity)
	if err != nil {
		panic(err)
	}
	return a
}

// Capacity returns the managed slab size in bytes.
func (a *Arena) Capacity() int { return len(a.mem) }

// Used returns the bytes currently allocated (including per-block headers).
func (a *Arena) Used() int { return int(a.used) }

// FreeBytes returns the bytes currently free (an upper bound on what a
// single Alloc can obtain, because of fragmentation and headers).
func (a *Arena) FreeBytes() int { return len(a.mem) - int(a.used) }

// Stats returns lifetime allocation and free counts.
func (a *Arena) Stats() (allocs, frees int64) { return a.allocs, a.frees }

// blockFor returns the total block size needed for an n-byte payload.
func blockFor(n int) uint32 {
	need := n + hdrSize
	if need < minBlock {
		need = minBlock
	}
	return uint32((need + align - 1) &^ (align - 1))
}

// classFor returns the smallest class that may contain a block of size s.
func classFor(s uint32) int {
	c := bits.Len32(s) - 1 - minShift
	if c < 0 {
		c = 0
	}
	if c >= numClasses {
		c = numClasses - 1
	}
	return c
}

// Alloc reserves n payload bytes and returns the payload offset. ok is
// false when no sufficiently large contiguous free block exists; callers
// (the partition store) respond by evicting and retrying.
func (a *Arena) Alloc(n int) (off uint32, ok bool) {
	if n < 0 {
		return 0, false
	}
	want := blockFor(n)
	// Search the exact class first (first-fit within it), then strictly
	// larger classes where the first block always fits.
	for c := classFor(want); c < numClasses; c++ {
		for b := a.freeHead[c]; b != nilOff; b = a.nextFree(b) {
			if a.size(b) >= want {
				a.popFree(b)
				a.splitAndAllocate(b, want)
				a.used += int64(a.size(b))
				a.allocs++
				return b + hdrSize, true
			}
		}
	}
	return 0, false
}

// splitAndAllocate marks block b allocated, carving off the tail beyond
// want into a new free block when large enough.
func (a *Arena) splitAndAllocate(b, want uint32) {
	total := a.size(b)
	if total >= want+minBlock {
		rest := b + want
		a.setSize(b, want, true)
		a.setSize(rest, total-want, false)
		a.setPrevSize(rest, want)
		a.fixupNextPrevSize(rest)
		a.pushFree(rest)
	} else {
		a.setSize(b, total, true)
	}
}

// Free releases the payload previously returned by Alloc.
func (a *Arena) Free(payloadOff uint32) {
	b := payloadOff - hdrSize
	if !a.allocated(b) {
		panic(fmt.Sprintf("partition: double free or bad offset %d", payloadOff))
	}
	a.used -= int64(a.size(b))
	a.frees++
	a.setSize(b, a.size(b), false)

	// Coalesce with physical successor.
	if next := b + a.size(b); int(next) < len(a.mem) && !a.allocated(next) {
		a.popFree(next)
		a.setSize(b, a.size(b)+a.size(next), false)
	}
	// Coalesce with physical predecessor.
	if ps := a.prevSize(b); ps != 0 {
		prev := b - ps
		if !a.allocated(prev) {
			a.popFree(prev)
			a.setSize(prev, a.size(prev)+a.size(b), false)
			b = prev
		}
	}
	a.fixupNextPrevSize(b)
	a.pushFree(b)
}

// fixupNextPrevSize refreshes the prevSize tag of the block after b.
func (a *Arena) fixupNextPrevSize(b uint32) {
	if next := b + a.size(b); int(next) < len(a.mem) {
		a.setPrevSize(next, a.size(b))
	}
}

// --- boundary tags ---

func (a *Arena) size(b uint32) uint32 {
	return binary.LittleEndian.Uint32(a.mem[b:]) & sizeMask
}

func (a *Arena) allocated(b uint32) bool {
	return binary.LittleEndian.Uint32(a.mem[b:])&allocBit != 0
}

func (a *Arena) setSize(b, size uint32, alloc bool) {
	v := size
	if alloc {
		v |= allocBit
	}
	binary.LittleEndian.PutUint32(a.mem[b:], v)
}

func (a *Arena) prevSize(b uint32) uint32 {
	return binary.LittleEndian.Uint32(a.mem[b+4:])
}

func (a *Arena) setPrevSize(b, s uint32) {
	binary.LittleEndian.PutUint32(a.mem[b+4:], s)
}

// --- free lists (links stored in the payload of free blocks) ---

func (a *Arena) nextFree(b uint32) uint32 {
	return binary.LittleEndian.Uint32(a.mem[b+hdrSize:])
}

func (a *Arena) prevFree(b uint32) uint32 {
	return binary.LittleEndian.Uint32(a.mem[b+hdrSize+4:])
}

func (a *Arena) setNextFree(b, v uint32) {
	binary.LittleEndian.PutUint32(a.mem[b+hdrSize:], v)
}

func (a *Arena) setPrevFree(b, v uint32) {
	binary.LittleEndian.PutUint32(a.mem[b+hdrSize+4:], v)
}

func (a *Arena) pushFree(b uint32) {
	c := classFor(a.size(b))
	head := a.freeHead[c]
	a.setNextFree(b, head)
	a.setPrevFree(b, nilOff)
	if head != nilOff {
		a.setPrevFree(head, b)
	}
	a.freeHead[c] = b
}

func (a *Arena) popFree(b uint32) {
	c := classFor(a.size(b))
	prev, next := a.prevFree(b), a.nextFree(b)
	if prev != nilOff {
		a.setNextFree(prev, next)
	} else {
		a.freeHead[c] = next
	}
	if next != nilOff {
		a.setPrevFree(next, prev)
	}
}

// CheckInvariants walks the whole slab verifying boundary tags, free-list
// membership and accounting; it is used by tests and returns a descriptive
// error on the first inconsistency found.
func (a *Arena) CheckInvariants() error {
	// Collect free-list membership.
	inList := map[uint32]bool{}
	for c := range a.freeHead {
		for b := a.freeHead[c]; b != nilOff; b = a.nextFree(b) {
			if inList[b] {
				return fmt.Errorf("block %d appears twice in free lists", b)
			}
			if got := classFor(a.size(b)); got != c {
				return fmt.Errorf("block %d (size %d) filed under class %d, want %d", b, a.size(b), c, got)
			}
			inList[b] = true
		}
	}
	var walkUsed int64
	var prevSz uint32
	freeSeen := 0
	for b := uint32(0); int(b) < len(a.mem); b += a.size(b) {
		sz := a.size(b)
		if sz < minBlock || sz%align != 0 {
			return fmt.Errorf("block %d has bad size %d", b, sz)
		}
		if a.prevSize(b) != prevSz {
			return fmt.Errorf("block %d prevSize = %d, want %d", b, a.prevSize(b), prevSz)
		}
		if a.allocated(b) {
			walkUsed += int64(sz)
			if inList[b] {
				return fmt.Errorf("allocated block %d is on a free list", b)
			}
		} else {
			freeSeen++
			if !inList[b] {
				return fmt.Errorf("free block %d missing from free lists", b)
			}
			if next := b + sz; int(next) < len(a.mem) && !a.allocated(next) {
				return fmt.Errorf("adjacent free blocks %d and %d not coalesced", b, next)
			}
		}
		prevSz = sz
	}
	if freeSeen != len(inList) {
		return fmt.Errorf("free lists hold %d blocks, walk found %d", len(inList), freeSeen)
	}
	if walkUsed != a.used {
		return fmt.Errorf("used accounting = %d, walk found %d", a.used, walkUsed)
	}
	return nil
}
