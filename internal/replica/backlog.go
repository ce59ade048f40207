package replica

import (
	"sync"

	"cphash/internal/cluster"
	"cphash/internal/persist"
	"cphash/internal/protocol"
)

// blEntry is one backlog record: its tail seq, its append stamp
// (source-clock nanos, so a scrape can turn a peer's record lag into a
// wall-time lag), where its frame lies in the byte ring (n bytes at
// absolute offset off, i.e. data[off%len(data):][:n]), and its WAL
// stream and position there.
type blEntry struct {
	seq    uint64
	at     int64
	off    uint64
	n      uint32
	stream uint32
	pos    persist.WALPos
}

// ringBytesPerRecord sizes the byte ring's first allocation from
// measured traffic: 1 MiB at the default 4 096 records. A frame is 33 B
// of headers (8 B WAL framing, 25 B record header) plus its value;
// durable_set50's frames average ~140 B, and the space skipped at the
// ring's end adds to that. At 256 B per record the ring never doubles
// there; at 128 B it doubled once per source and the outgrown ring
// stayed resident. The ring only has to cover a follower's usual lag:
// one further behind catches up from the segment files.
const ringBytesPerRecord = 256

// backlog is the bounded tail ring: TailRecord appends under the mutex
// (persister goroutines, one per WAL stream), peer senders copy out
// under it. Sequence numbers start at 1 and never wrap in practice.
//
// Records and their bytes live in two rings. buf holds the last
// len(buf) records' entries; data holds their frames back to back,
// addressed by an absolute byte offset modulo len(data). A frame that
// would straddle the end of data starts again at its front instead, so
// every frame is one contiguous slice of data. When the live frames plus
// a new one do not fit, data doubles and the live frames are copied to
// its front, renumbered from offset 0; it never shrinks. The backlog
// thus holds about the bytes of its last len(buf) frames, and it is
// pointer-free, so the collector never scans it.
//
// from[s] is the WAL position of stream s from which the backlog holds
// every record of that stream: a peer at or past it in every stream can
// be served from the backlog alone (handoff); one behind it must first
// read the gap from the segment files.
type backlog struct {
	mu   sync.Mutex
	buf  []blEntry
	data []byte
	head uint64 // absolute offset just past the newest frame
	next uint64
	from []persist.WALPos
}

// init sizes an empty backlog for the given record bound and stream
// count. Until raiseFrom names a barrier, every from[s] is the zero
// position, which no peer position is behind; the source raises it
// before any peer connects.
func (b *backlog) init(records, streams int) {
	b.buf = make([]blEntry, records)
	b.data = make([]byte, records*ringBytesPerRecord)
	b.next = 1
	b.from = make([]persist.WALPos, streams)
}

// raiseFrom moves from[s] up to pos[s] for every stream: records before
// a barrier that the sink may have missed are the files' to serve.
func (b *backlog) raiseFrom(pos []persist.WALPos) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for s, p := range pos {
		if b.from[s].Before(p) {
			b.from[s] = p
		}
	}
}

// oldestLocked returns the oldest retained seq (next when empty).
func (b *backlog) oldestLocked() uint64 {
	if n := uint64(len(b.buf)); b.next > n {
		return b.next - n
	}
	return 1
}

// frameLocked returns the stored frame of a retained record.
func (b *backlog) frameLocked(e *blEntry) []byte {
	at := e.off % uint64(len(b.data))
	return b.data[at : at+uint64(e.n)]
}

// append stamps a frame of the given stream and position with the next
// tail seq and stores it, evicting the oldest record when full.
func (b *backlog) append(frame []byte, at int64, stream int, pos persist.WALPos) {
	b.mu.Lock()
	n := uint64(len(frame))
	// The records that stay live once this one evicts the oldest slot.
	keep := b.oldestLocked()
	if b.next-keep+1 > uint64(len(b.buf)) {
		keep++
	}
	off := b.place(b.head, n)
	start := off
	if keep < b.next {
		start = b.buf[keep%uint64(len(b.buf))].off
	}
	if off+n-start > uint64(len(b.data)) {
		b.grow(keep, n)
		off = b.head
	}
	copy(b.data[off%uint64(len(b.data)):], frame)
	e := &b.buf[b.next%uint64(len(b.buf))]
	if e.seq != 0 && b.from[e.stream].Before(e.pos) {
		// Evicted: its stream is served from the backlog only past it.
		// (An entry older than a raised barrier leaves from where it is.)
		b.from[e.stream] = e.pos
	}
	*e = blEntry{seq: b.next, at: at, off: off, n: uint32(n), stream: uint32(stream), pos: pos}
	b.head = off + n
	b.next++
	b.mu.Unlock()
}

// place returns the offset at or after head where an n-byte frame sits
// contiguously: head itself, or the start of the next lap when the frame
// would straddle the end of data.
func (b *backlog) place(head, n uint64) uint64 {
	size := uint64(len(b.data))
	if at := head % size; at+n > size {
		return head + size - at
	}
	return head
}

// grow doubles data until the frames of records [keep, next) plus an
// n-byte frame fit, copying those frames to its front.
func (b *backlog) grow(keep, n uint64) {
	live := n
	for s := keep; s < b.next; s++ {
		live += uint64(b.buf[s%uint64(len(b.buf))].n)
	}
	size := 2 * len(b.data)
	for uint64(size) < live {
		size *= 2
	}
	data := make([]byte, size)
	var off uint64
	for s := keep; s < b.next; s++ {
		e := &b.buf[s%uint64(len(b.buf))]
		copy(data[off:], b.frameLocked(e))
		e.off = off
		off += uint64(e.n)
	}
	b.data = data
	b.head = off
}

// tail returns the last assigned seq (0 = nothing yet).
func (b *backlog) tail() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.next - 1
}

// handoff reports whether a peer holding every record through pos (one
// position per stream) can be served from the backlog alone, and if so
// the seq to stream from: the oldest retained record it does not hold.
func (b *backlog) handoff(pos []persist.WALPos) (cursor uint64, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for s, p := range pos {
		if p.Before(b.from[s]) {
			return 0, false
		}
	}
	for cursor = b.oldestLocked(); cursor < b.next; cursor++ {
		e := &b.buf[cursor%uint64(len(b.buf))]
		if pos[e.stream].Before(e.pos) {
			break
		}
	}
	return cursor, true
}

// stampAt returns the append timestamp of seq, or 0 when seq is not yet
// assigned. For a seq the backlog no longer holds it returns the oldest
// retained record's stamp: a lower bound on the age of a peer's lag
// while it catches up from the segment files.
func (b *backlog) stampAt(seq uint64) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if seq == 0 || seq >= b.next {
		return 0
	}
	seq = max(seq, b.oldestLocked())
	return b.buf[seq%uint64(len(b.buf))].at
}

// collect copies the frames of records [from, tail] that pos does not
// yet cover and that match slots into dst (up to maxBytes), advancing
// pos over every record it passes. It returns the extended body, the
// next unconsumed seq, how many records it copied, and whether from has
// already been overwritten (the peer fell off the backlog).
func (b *backlog) collect(from uint64, slots *protocol.SlotSet, pos []persist.WALPos, dst []byte, maxBytes int) (out []byte, next uint64, matched int, overrun bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if from < b.oldestLocked() {
		return dst, from, 0, true
	}
	next = from
	for next < b.next && len(dst) < maxBytes {
		e := &b.buf[next%uint64(len(b.buf))]
		next++
		if !pos[e.stream].Before(e.pos) {
			continue // held already: the sync's barrier or a catch-up covered it
		}
		pos[e.stream] = e.pos
		rec := b.frameLocked(e)
		if slots == nil || slots.Has(cluster.SlotOf(persist.FrameKey(rec))) {
			dst = append(dst, rec...)
			matched++
		}
	}
	return dst, next, matched, false
}
