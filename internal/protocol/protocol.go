// Package protocol implements CPSERVER's binary wire protocol. Version 1
// is Section 4.1 of the CPHash paper verbatim:
//
//	LOOKUP:  op(1) | key(8)
//	INSERT:  op(1) | key(8) | size(4) | value(size)
//
// A LOOKUP elicits a response — size(4) | value(size) — with size 0
// meaning "not found". An INSERT is performed silently: the server sends
// no response, exactly as in the paper.
//
// Version 2 extends the protocol toward a full memcached-class cache
// while keeping every version-1 frame byte-identical:
//
//	DELETE:      op(1) | key(8)
//	INSERT_TTL:  op(1) | key(8) | ttl_ms(4) | size(4) | value(size)
//	GET_STR:     op(1) | klen(2) | key(klen)
//	SET_STR:     op(1) | klen(2) | key(klen) | ttl_ms(4) | size(4) | value(size)
//	DEL_STR:     op(1) | klen(2) | key(klen)
//
// A DELETE/DEL_STR elicits a one-byte response — found(1), nonzero when
// the key existed — so clients can synchronize on deletion. GET_STR is
// answered like LOOKUP. SET_STR and INSERT_TTL are silent like INSERT.
// A ttl_ms of zero means "never expires"; otherwise the entry becomes
// invisible ttl_ms milliseconds after the server stores it.
//
// Version 3 adds the bulk iteration primitives that online slot migration
// is built on:
//
//	SCAN:   op(1) | slots(32) | cursor(8) | count(4)
//	PURGE:  op(1) | slots(32) | cursor(8) | count(4)
//
// slots is a 256-bit bitmap selecting continuum slots (the top eight bits
// of the splitmix64-mixed key — see internal/cluster); cursor is an opaque
// server-defined iteration position (0 starts a scan) and count bounds the
// entries returned (0 = server default, at most MaxScanBatch). A SCAN
// response is
//
//	next_cursor(8) | n(4) | n × [ key(8) | ttl_ms(4) | size(4) | value(size) ]
//
// where next_cursor is ScanDone once iteration is complete and ttl_ms is
// the entry's REMAINING lifetime (0 = never expires), so a migrator can
// re-insert the entry elsewhere with its TTL preserved. A batch may be
// empty with next_cursor ≠ ScanDone: servers bound the work per round trip
// and the client resumes. A PURGE removes every live entry in the selected
// slots (same bounded-cursor contract) and responds
//
//	next_cursor(8) | removed(4)
//
// String-key entries travel through SCAN as their 60-bit hash key plus the
// stored entry bytes (klen|key|value framing), so replaying them with
// INSERT_TTL on another server reproduces GET_STR-visible state exactly.
//
// String keys are variable-length (up to MaxKeyLen bytes) and are routed
// to the fixed 60-bit key space by HashStringKey, the paper's Section 8.2
// extension; AppendStringEntry/CutStringEntry define the stored-entry
// framing that makes 60-bit hash collisions detectable.
//
// Version 4 adds atomic read-modify-write (the memcached-compatibility op
// set) on top of a per-entry 64-bit CAS version:
//
//	CAS:        op(1) | key(8) | ttl_ms(4) | ver(8) | size(4) | value(size)
//	ADD:        op(1) | key(8) | ttl_ms(4) | size(4) | value(size)
//	REPLACE:    op(1) | key(8) | ttl_ms(4) | size(4) | value(size)
//	APPEND:     op(1) | key(8) | prefix(1) | size(4) | value(size)
//	PREPEND:    op(1) | key(8) | prefix(1) | size(4) | value(size)
//	INCR:       op(1) | key(8) | delta(8) | prefix(1)
//	DECR:       op(1) | key(8) | delta(8) | prefix(1)
//	TOUCH:      op(1) | key(8) | ttl_ms(4)
//	GETS:       op(1) | key(8)
//	INSERT_VER: op(1) | key(8) | ttl_ms(4) | ver(8) | size(4) | value(size)
//
// prefix declares the first prefix bytes of the STORED value an opaque
// header the concatenation/arithmetic must not disturb: PREPEND splices
// after it, INCR/DECR parse (and rewrite) only the bytes past it, and
// APPEND carries it for symmetry (appending never touches the head). The
// memcached front-end stores its 32-bit flags word as a 4-byte value
// prefix and sets prefix=4; native callers use 0.
//
// plus a _STR variant of each (klen(2) | key(klen) replaces key(8)). Every
// read-modify-write op elicits a fixed-size response —
//
//	status(1) | ver(8) | num(8)
//
// — where status is the RMWStatus* code, ver the resulting (or, on
// RMWStatusExists, the conflicting) entry version, and num the resulting
// numeric value for INCR/DECR. GETS is answered like LOOKUP but with the
// entry version ahead of the value:
//
//	found(1) | ver(8) | size(4) | value(size)
//
// INSERT_VER is INSERT_TTL with an explicit entry version, silent like
// INSERT; migration and replica replay use it so CAS versions survive the
// move. SCAN entries also carry the version from version 4 on:
//
//	key(8) | ttl_ms(4) | ver(8) | size(4) | value(size)
//
// Read-modify-writes execute atomically on the owning server goroutine;
// the WAL logs their resulting state, never the operation.
//
// Integers are little-endian. Fixed keys are 60-bit (high bits must be
// zero). Servers that only speak version 1 treat version-2 opcodes as a
// protocol error and drop the connection, so version negotiation is
// implicit: a client probes with a DELETE and falls back on disconnect.
package protocol

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"math/bits"

	"cphash/internal/partition"
)

// Op codes. Ops 1–2 are protocol version 1 (the paper's CPSERVER); ops
// 3–7 are version 2.
const (
	// OpLookup asks for the value under a key.
	OpLookup uint8 = 1
	// OpInsert stores a value under a key, silently.
	OpInsert uint8 = 2
	// OpDelete removes a key; the response is one found-byte.
	OpDelete uint8 = 3
	// OpInsertTTL is OpInsert with a leading ttl_ms field.
	OpInsertTTL uint8 = 4
	// OpGetStr is OpLookup with a variable-length string key.
	OpGetStr uint8 = 5
	// OpSetStr is OpInsertTTL with a variable-length string key.
	OpSetStr uint8 = 6
	// OpDelStr is OpDelete with a variable-length string key.
	OpDelStr uint8 = 7
	// OpScan iterates live entries of a slot set, cursor-based.
	OpScan uint8 = 8
	// OpPurge removes live entries of a slot set, cursor-based.
	OpPurge uint8 = 9
	// OpCas stores iff the entry's version matches Ver.
	OpCas uint8 = 10
	// OpAdd stores iff the key is absent.
	OpAdd uint8 = 11
	// OpReplace stores iff the key is present.
	OpReplace uint8 = 12
	// OpAppend concatenates after the existing value.
	OpAppend uint8 = 13
	// OpPrepend concatenates before the existing value.
	OpPrepend uint8 = 14
	// OpIncr adds Delta to the decimal value.
	OpIncr uint8 = 15
	// OpDecr subtracts Delta from the decimal value (floors at 0).
	OpDecr uint8 = 16
	// OpTouch updates the entry's expiry in place.
	OpTouch uint8 = 17
	// OpGets is OpLookup that also returns the entry version.
	OpGets uint8 = 18
	// OpCasStr..OpGetsStr are the string-key variants of ops 10–18.
	OpCasStr     uint8 = 19
	OpAddStr     uint8 = 20
	OpReplaceStr uint8 = 21
	OpAppendStr  uint8 = 22
	OpPrependStr uint8 = 23
	OpIncrStr    uint8 = 24
	OpDecrStr    uint8 = 25
	OpTouchStr   uint8 = 26
	OpGetsStr    uint8 = 27
	// OpInsertVer is OpInsertTTL with an explicit entry version, silent;
	// the replay primitive that preserves CAS versions across migration.
	OpInsertVer uint8 = 28
)

// Version is the highest protocol version this package speaks.
const Version = 4

// OpVersion returns the protocol version that introduced op, or 0 for an
// unknown opcode.
func OpVersion(op uint8) int {
	switch op {
	case OpLookup, OpInsert:
		return 1
	case OpDelete, OpInsertTTL, OpGetStr, OpSetStr, OpDelStr:
		return 2
	case OpScan, OpPurge:
		return 3
	default:
		if op >= OpCas && op <= OpInsertVer {
			return 4
		}
		return 0
	}
}

// RMW response status codes — the wire form of partition.RMWStatus, and
// numerically identical to it (kvserver asserts the equality).
const (
	RMWStatusStored    uint8 = 1 // mutation applied
	RMWStatusNotStored uint8 = 2 // add on present / replace|append|prepend on absent
	RMWStatusExists    uint8 = 3 // cas version mismatch
	RMWStatusNotFound  uint8 = 4 // cas/incr/decr/touch on absent key
	RMWStatusBadValue  uint8 = 5 // incr/decr on non-numeric value
	RMWStatusTooLarge  uint8 = 6 // derived value exceeds the size bound
	RMWStatusNoSpace   uint8 = 7 // allocation failed even after eviction
)

// MaxValueSize bounds a value (and therefore a frame); larger sizes are
// treated as protocol errors so a corrupt stream cannot force huge
// allocations.
const MaxValueSize = 16 << 20

// MaxKeyLen bounds a string key. Wire klen is 16-bit, but memcached-class
// traffic never needs more than this and the bound keeps per-request
// allocations small.
const MaxKeyLen = 4 << 10

// maxFixedKey is the largest valid fixed key (60 bits, as in the paper).
const maxFixedKey = 1<<60 - 1

// SlotCount is the size of the continuum the SCAN/PURGE slot bitmap
// indexes. It must equal cluster.Slots; the cluster package asserts the
// equality at compile time.
const SlotCount = 256

// MaxScanBatch bounds the entries in one SCAN response (and the count a
// request may ask for), so a corrupt stream cannot force huge allocations.
const MaxScanBatch = 4096

// ScanDone is the next_cursor value marking a completed SCAN/PURGE
// iteration. It cannot collide with a real cursor: keys are 60-bit and
// servers encode cursors well below 2^64-1.
const ScanDone = ^uint64(0)

// SlotSet is a 256-bit bitmap of continuum slots, the unit SCAN and PURGE
// select entries by.
type SlotSet [SlotCount / 8]byte

// Add marks a slot as selected. Slots outside [0, SlotCount) are ignored.
func (s *SlotSet) Add(slot int) {
	if slot >= 0 && slot < SlotCount {
		s[slot>>3] |= 1 << (slot & 7)
	}
}

// Has reports whether a slot is selected; false outside [0, SlotCount).
func (s *SlotSet) Has(slot int) bool {
	return slot >= 0 && slot < SlotCount && s[slot>>3]&(1<<(slot&7)) != 0
}

// Len counts the selected slots.
func (s *SlotSet) Len() int {
	n := 0
	for _, b := range s {
		n += bits.OnesCount8(b)
	}
	return n
}

// ScanEntry is one live entry streamed by a SCAN response: the fixed
// 60-bit key, the remaining TTL in milliseconds (0 = never expires), the
// entry's CAS version, and the raw stored value bytes.
type ScanEntry struct {
	Key     uint64
	TTL     uint32
	Version uint64
	Value   []byte
}

// Request is one parsed client request.
type Request struct {
	Op     uint8
	Key    uint64  // fixed 60-bit key; unset for string-key ops
	StrKey []byte  // string key for the *_STR ops
	TTL    uint32  // milliseconds; 0 = never expires
	Value  []byte  // stored/concatenated payload for value-carrying ops
	Ver    uint64  // expected version (CAS) or explicit version (INSERT_VER)
	Delta  uint64  // INCR/DECR operand
	Prefix uint8   // opaque value-header bytes APPEND/PREPEND/INCR/DECR preserve
	Slots  SlotSet // slot bitmap for OpScan/OpPurge
	Cursor uint64  // iteration position for OpScan/OpPurge (0 = start)
	Count  uint32  // max entries per OpScan batch (0 = server default)
}

// hasStrKey reports whether op carries a variable-length key.
func hasStrKey(op uint8) bool {
	return op == OpGetStr || op == OpSetStr || op == OpDelStr ||
		(op >= OpCasStr && op <= OpGetsStr)
}

// hasSlots reports whether op carries a slots+cursor+count trailer instead
// of a key.
func hasSlots(op uint8) bool {
	return op == OpScan || op == OpPurge
}

// hasValue reports whether op carries a size+value trailer.
func hasValue(op uint8) bool {
	switch op {
	case OpInsert, OpInsertTTL, OpSetStr, OpInsertVer,
		OpCas, OpAdd, OpReplace, OpAppend, OpPrepend,
		OpCasStr, OpAddStr, OpReplaceStr, OpAppendStr, OpPrependStr:
		return true
	}
	return false
}

// hasTTL reports whether op carries a ttl_ms(4) field.
func hasTTL(op uint8) bool {
	switch op {
	case OpInsertTTL, OpSetStr, OpInsertVer,
		OpCas, OpAdd, OpReplace, OpTouch,
		OpCasStr, OpAddStr, OpReplaceStr, OpTouchStr:
		return true
	}
	return false
}

// hasVer reports whether op carries a ver(8) field.
func hasVer(op uint8) bool {
	return op == OpCas || op == OpCasStr || op == OpInsertVer
}

// hasDelta reports whether op carries a delta(8) field.
func hasDelta(op uint8) bool {
	return op == OpIncr || op == OpDecr || op == OpIncrStr || op == OpDecrStr
}

// hasPrefix reports whether op carries a prefix(1) field.
func hasPrefix(op uint8) bool {
	switch op {
	case OpAppend, OpPrepend, OpIncr, OpDecr,
		OpAppendStr, OpPrependStr, OpIncrStr, OpDecrStr:
		return true
	}
	return false
}

// IsRMW reports whether op is a read-modify-write, i.e. elicits the
// status(1)|ver(8)|num(8) response. GETS and INSERT_VER are not RMWs: the
// former answers like a lookup, the latter is silent.
func IsRMW(op uint8) bool {
	return (op >= OpCas && op <= OpTouch) || (op >= OpCasStr && op <= OpTouchStr)
}

// --- allocation-free wire primitives ---
//
// The helpers below exist so the steady-state request path performs no
// heap allocation at all. Passing a stack scratch array into io.ReadFull
// or Writer.Write makes it escape (the io interfaces may retain it, as
// far as escape analysis can tell), which costs one hidden allocation per
// call — over half the hot path's allocations before this package staged
// integers in the bufio buffers themselves. Writes append into
// w.AvailableBuffer (the writer's own storage) and reads decode in place
// via Peek/Discard, so no scratch memory exists to escape. Similarly,
// SlotSet bitmaps are copied chunk-wise rather than sliced, so a by-value
// Request never gets forced to the heap by `r.Slots[:]`.

// writeUintN appends the n low-order bytes of v (little-endian) to w
// without any intermediate buffer.
func writeUintN(w *bufio.Writer, v uint64, n int) error {
	if w.Available() < n {
		if err := w.Flush(); err != nil {
			return err
		}
		if w.Available() < n {
			// Degenerate writer smaller than one integer: byte at a time.
			for i := 0; i < n; i++ {
				if err := w.WriteByte(byte(v >> (8 * i))); err != nil {
					return err
				}
			}
			return nil
		}
	}
	b := w.AvailableBuffer()[:n]
	for i := 0; i < n; i++ {
		b[i] = byte(v >> (8 * i))
	}
	_, err := w.Write(b)
	return err
}

// writeCopied writes p by staging it through the writer's own buffer, so
// p itself is never handed to the underlying io.Writer. Use it for data
// whose address must not escape (e.g. an array field of a by-value
// request); heap-backed payloads can use w.Write directly.
func writeCopied(w *bufio.Writer, p []byte) error {
	for len(p) > 0 {
		if w.Available() == 0 {
			if err := w.Flush(); err != nil {
				return err
			}
		}
		b := w.AvailableBuffer()
		n := copy(b[:cap(b)], p)
		if _, err := w.Write(b[:n]); err != nil {
			return err
		}
		p = p[n:]
	}
	return nil
}

// readUintN decodes an n-byte little-endian integer in place (n ≤ 8,
// within bufio's minimum buffer size). Errors mirror io.ReadFull: io.EOF
// with no bytes consumed, io.ErrUnexpectedEOF mid-integer.
func readUintN(r *bufio.Reader, n int) (uint64, error) {
	p, err := r.Peek(n)
	if err != nil {
		if len(p) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	var v uint64
	for i := 0; i < n; i++ {
		v |= uint64(p[i]) << (8 * i)
	}
	_, _ = r.Discard(n)
	return v, nil
}

// readSlots fills a slot bitmap by copying out of the reader's buffer in
// sub-line chunks, so the destination's address never escapes.
func readSlots(r *bufio.Reader, s *SlotSet) error {
	for off := 0; off < len(s); {
		want := len(s) - off
		if want > 8 {
			want = 8
		}
		p, err := r.Peek(want)
		if err != nil {
			return unexpected(err)
		}
		n := copy(s[off:], p)
		_, _ = r.Discard(n)
		off += n
	}
	return nil
}

// emptyBytes backs zero-length StrKey/Value results so decoded requests
// never carry a nil slice for a field that was present on the wire.
var emptyBytes = make([]byte, 0)

// appendReadFull appends n bytes from r to scratch, returning the grown
// scratch and the freshly-read tail (non-nil even for n = 0). On error
// scratch is returned un-grown.
func appendReadFull(r *bufio.Reader, scratch []byte, n int) ([]byte, []byte, error) {
	if n == 0 {
		return scratch, emptyBytes, nil
	}
	start := len(scratch)
	scratch = append(scratch, make([]byte, n)...)
	if _, err := io.ReadFull(r, scratch[start:]); err != nil {
		return scratch[:start], nil, unexpected(err)
	}
	return scratch, scratch[start:len(scratch):len(scratch)], nil
}

// WriteRequest serializes r. The caller flushes the writer when its batch
// is complete (batching is the point of the protocol). The steady-state
// path performs no heap allocation.
func WriteRequest(w *bufio.Writer, r Request) error {
	// Validate the whole frame before buffering any byte of it: a failed
	// call must leave the stream clean for the caller's next request.
	if OpVersion(r.Op) == 0 {
		return fmt.Errorf("protocol: unknown op %d", r.Op)
	}
	if hasStrKey(r.Op) && len(r.StrKey) > MaxKeyLen {
		return fmt.Errorf("protocol: key of %d bytes exceeds maximum %d", len(r.StrKey), MaxKeyLen)
	}
	if hasValue(r.Op) && len(r.Value) > MaxValueSize {
		return fmt.Errorf("protocol: value of %d bytes exceeds maximum %d", len(r.Value), MaxValueSize)
	}
	if hasSlots(r.Op) && r.Count > MaxScanBatch {
		return fmt.Errorf("protocol: scan count %d exceeds maximum %d", r.Count, MaxScanBatch)
	}
	if err := w.WriteByte(r.Op); err != nil {
		return err
	}
	if hasSlots(r.Op) {
		if err := writeCopied(w, r.Slots[:]); err != nil {
			return err
		}
		if err := writeUintN(w, r.Cursor, 8); err != nil {
			return err
		}
		return writeUintN(w, uint64(r.Count), 4)
	}
	if hasStrKey(r.Op) {
		if err := writeUintN(w, uint64(len(r.StrKey)), 2); err != nil {
			return err
		}
		if _, err := w.Write(r.StrKey); err != nil {
			return err
		}
	} else {
		if err := writeUintN(w, r.Key, 8); err != nil {
			return err
		}
	}
	if hasTTL(r.Op) {
		if err := writeUintN(w, uint64(r.TTL), 4); err != nil {
			return err
		}
	}
	if hasVer(r.Op) {
		if err := writeUintN(w, r.Ver, 8); err != nil {
			return err
		}
	}
	if hasDelta(r.Op) {
		if err := writeUintN(w, r.Delta, 8); err != nil {
			return err
		}
	}
	if hasPrefix(r.Op) {
		if err := w.WriteByte(r.Prefix); err != nil {
			return err
		}
	}
	if hasValue(r.Op) {
		if err := writeUintN(w, uint64(len(r.Value)), 4); err != nil {
			return err
		}
		_, err := w.Write(r.Value)
		return err
	}
	return nil
}

// DecodeRequestInto parses one request into *req, appending any
// variable-length bytes (string key and value payload) to scratch;
// req.StrKey and req.Value alias the returned buffer. The returned slice
// is the grown scratch: the caller owns it and may recycle it once the
// request has been fully processed (see the no-retention contract on
// kvserver.Backend.ProcessBatch). A nil scratch allocates a fresh arena
// sized to the frame, so the request owns its bytes. On error
// *req is undefined, scratch is returned un-grown, and io.EOF is returned
// cleanly only at a message boundary. The steady-state path (scratch
// capacity sufficient) performs no heap allocation.
func DecodeRequestInto(r *bufio.Reader, req *Request, scratch []byte) ([]byte, error) {
	op, err := r.ReadByte()
	if err != nil {
		return scratch, err // io.EOF at boundary is clean shutdown
	}
	if OpVersion(op) == 0 {
		return scratch, fmt.Errorf("protocol: unknown op %d", op)
	}
	*req = Request{Op: op}
	if hasSlots(op) {
		if err := readSlots(r, &req.Slots); err != nil {
			return scratch, err
		}
		cursor, err := readUintN(r, 8)
		if err != nil {
			return scratch, unexpected(err)
		}
		req.Cursor = cursor
		count, err := readUintN(r, 4)
		if err != nil {
			return scratch, unexpected(err)
		}
		req.Count = uint32(count)
		if req.Count > MaxScanBatch {
			return scratch, fmt.Errorf("protocol: scan count %d exceeds maximum %d", req.Count, MaxScanBatch)
		}
		return scratch, nil
	}
	// mark restores scratch's length on any failure after bytes were
	// appended, honoring the un-grown-on-error contract (the backing
	// array may still have been reallocated by a successful grow).
	mark := len(scratch)
	if hasStrKey(op) {
		klen, err := readUintN(r, 2)
		if err != nil {
			return scratch, unexpected(err)
		}
		if klen > MaxKeyLen {
			return scratch, fmt.Errorf("protocol: key length %d exceeds maximum %d", klen, MaxKeyLen)
		}
		if scratch, req.StrKey, err = appendReadFull(r, scratch, int(klen)); err != nil {
			return scratch[:mark], err
		}
	} else {
		key, err := readUintN(r, 8)
		if err != nil {
			return scratch, unexpected(err)
		}
		req.Key = key
	}
	if hasTTL(op) {
		ttl, err := readUintN(r, 4)
		if err != nil {
			return scratch[:mark], unexpected(err)
		}
		req.TTL = uint32(ttl)
	}
	if hasVer(op) {
		ver, err := readUintN(r, 8)
		if err != nil {
			return scratch[:mark], unexpected(err)
		}
		req.Ver = ver
	}
	if hasDelta(op) {
		delta, err := readUintN(r, 8)
		if err != nil {
			return scratch[:mark], unexpected(err)
		}
		req.Delta = delta
	}
	if hasPrefix(op) {
		pfx, err := r.ReadByte()
		if err != nil {
			return scratch[:mark], unexpected(err)
		}
		req.Prefix = pfx
	}
	if hasValue(op) {
		size, err := readUintN(r, 4)
		if err != nil {
			return scratch[:mark], unexpected(err)
		}
		if size > MaxValueSize {
			return scratch[:mark], fmt.Errorf("protocol: value size %d exceeds maximum %d", size, MaxValueSize)
		}
		if scratch, req.Value, err = appendReadFull(r, scratch, int(size)); err != nil {
			return scratch[:mark], err
		}
	}
	return scratch, nil
}

// WriteLookupResponse serializes a LOOKUP/GET_STR response; found=false
// (or an empty value with found=true) is indistinguishable on the wire, as
// in the paper: "a size field of zero". It performs no heap allocation.
func WriteLookupResponse(w *bufio.Writer, value []byte, found bool) error {
	if !found {
		return writeUintN(w, 0, 4)
	}
	if len(value) > MaxValueSize {
		return fmt.Errorf("protocol: value of %d bytes exceeds maximum %d", len(value), MaxValueSize)
	}
	if err := writeUintN(w, uint64(len(value)), 4); err != nil {
		return err
	}
	_, err := w.Write(value)
	return err
}

// ReadLookupResponse parses one LOOKUP/GET_STR response, appending the
// value to dst. found is false for a zero-size response. With sufficient
// dst capacity it performs no heap allocation.
func ReadLookupResponse(r *bufio.Reader, dst []byte) (out []byte, found bool, err error) {
	size, err := readUintN(r, 4)
	if err != nil {
		return dst, false, err
	}
	if size == 0 {
		return dst, false, nil
	}
	if size > MaxValueSize {
		return dst, false, fmt.Errorf("protocol: response size %d exceeds maximum %d", size, MaxValueSize)
	}
	n := len(dst)
	dst = append(dst, make([]byte, size)...)
	if _, err := io.ReadFull(r, dst[n:]); err != nil {
		return dst[:n], false, unexpected(err)
	}
	return dst, true, nil
}

// WriteDeleteResponse serializes a DELETE/DEL_STR response: one byte,
// nonzero when the key existed.
func WriteDeleteResponse(w *bufio.Writer, found bool) error {
	b := byte(0)
	if found {
		b = 1
	}
	return w.WriteByte(b)
}

// ReadDeleteResponse parses one DELETE/DEL_STR response.
func ReadDeleteResponse(r *bufio.Reader) (found bool, err error) {
	b, err := r.ReadByte()
	if err != nil {
		return false, err
	}
	return b != 0, nil
}

// WriteScanResponse serializes one SCAN response batch. next is the cursor
// the client resumes at (ScanDone once iteration is complete); entries may
// be empty even mid-iteration (the server bounds work per round trip).
func WriteScanResponse(w *bufio.Writer, next uint64, entries []ScanEntry) error {
	if len(entries) > MaxScanBatch {
		return fmt.Errorf("protocol: scan batch of %d entries exceeds maximum %d", len(entries), MaxScanBatch)
	}
	for _, e := range entries {
		if len(e.Value) > MaxValueSize {
			return fmt.Errorf("protocol: scan value of %d bytes exceeds maximum %d", len(e.Value), MaxValueSize)
		}
	}
	if err := writeUintN(w, next, 8); err != nil {
		return err
	}
	if err := writeUintN(w, uint64(len(entries)), 4); err != nil {
		return err
	}
	for _, e := range entries {
		if err := writeUintN(w, e.Key, 8); err != nil {
			return err
		}
		if err := writeUintN(w, uint64(e.TTL), 4); err != nil {
			return err
		}
		if err := writeUintN(w, e.Version, 8); err != nil {
			return err
		}
		if err := writeUintN(w, uint64(len(e.Value)), 4); err != nil {
			return err
		}
		if _, err := w.Write(e.Value); err != nil {
			return err
		}
	}
	return nil
}

// ReadScanResponse parses one SCAN response batch, appending entries to
// dst. Entry values are fresh copies owned by the caller (they may share
// backing arrays). Truncated or oversized frames are reported as errors,
// never panics. Hot paths should prefer ReadScanResponseInto, which
// recycles a caller-owned arena.
func ReadScanResponse(r *bufio.Reader, dst []ScanEntry) (next uint64, out []ScanEntry, err error) {
	next, out, _, err = ReadScanResponseInto(r, dst, nil)
	return next, out, err
}

// ReadScanResponseInto parses one SCAN response batch, appending entries
// to dst and their value bytes to scratch. Entry values alias the arena
// (or, when growth reallocated it mid-batch, a predecessor array whose
// bytes remain valid); the caller owns both slices and may recycle
// scratch once it is done with every entry of the batch. A nil scratch
// allocates a fresh arena. With sufficient capacity in dst and scratch it
// performs no heap allocation.
func ReadScanResponseInto(r *bufio.Reader, dst []ScanEntry, scratch []byte) (next uint64, out []ScanEntry, outScratch []byte, err error) {
	next, err = readUintN(r, 8)
	if err != nil {
		return 0, dst, scratch, err
	}
	n, err := readUintN(r, 4)
	if err != nil {
		return 0, dst, scratch, unexpected(err)
	}
	if n > MaxScanBatch {
		return 0, dst, scratch, fmt.Errorf("protocol: scan batch of %d entries exceeds maximum %d", n, MaxScanBatch)
	}
	mark := len(dst)
	for i := uint64(0); i < n; i++ {
		var e ScanEntry
		key, err := readUintN(r, 8)
		if err != nil {
			return 0, dst[:mark], scratch, unexpected(err)
		}
		e.Key = key
		ttl, err := readUintN(r, 4)
		if err != nil {
			return 0, dst[:mark], scratch, unexpected(err)
		}
		e.TTL = uint32(ttl)
		ver, err := readUintN(r, 8)
		if err != nil {
			return 0, dst[:mark], scratch, unexpected(err)
		}
		e.Version = ver
		size, err := readUintN(r, 4)
		if err != nil {
			return 0, dst[:mark], scratch, unexpected(err)
		}
		if size > MaxValueSize {
			return 0, dst[:mark], scratch, fmt.Errorf("protocol: scan value size %d exceeds maximum %d", size, MaxValueSize)
		}
		if scratch, e.Value, err = appendReadFull(r, scratch, int(size)); err != nil {
			return 0, dst[:mark], scratch, err
		}
		dst = append(dst, e)
	}
	return next, dst, scratch, nil
}

// WriteRMWResponse serializes one read-modify-write response:
// status(1) | ver(8) | num(8). It performs no heap allocation.
func WriteRMWResponse(w *bufio.Writer, status uint8, ver, num uint64) error {
	if err := w.WriteByte(status); err != nil {
		return err
	}
	if err := writeUintN(w, ver, 8); err != nil {
		return err
	}
	return writeUintN(w, num, 8)
}

// ReadRMWResponse parses one read-modify-write response.
func ReadRMWResponse(r *bufio.Reader) (status uint8, ver, num uint64, err error) {
	status, err = r.ReadByte()
	if err != nil {
		return 0, 0, 0, err
	}
	if status < RMWStatusStored || status > RMWStatusNoSpace {
		return 0, 0, 0, fmt.Errorf("protocol: unknown rmw status %d", status)
	}
	if ver, err = readUintN(r, 8); err != nil {
		return 0, 0, 0, unexpected(err)
	}
	if num, err = readUintN(r, 8); err != nil {
		return 0, 0, 0, unexpected(err)
	}
	return status, ver, num, nil
}

// WriteGetsResponse serializes a GETS response: found(1) | ver(8) |
// size(4) | value(size). Unlike LOOKUP, found travels explicitly so an
// empty value keeps its version. It performs no heap allocation.
func WriteGetsResponse(w *bufio.Writer, value []byte, ver uint64, found bool) error {
	if !found {
		if err := w.WriteByte(0); err != nil {
			return err
		}
		if err := writeUintN(w, 0, 8); err != nil {
			return err
		}
		return writeUintN(w, 0, 4)
	}
	if len(value) > MaxValueSize {
		return fmt.Errorf("protocol: value of %d bytes exceeds maximum %d", len(value), MaxValueSize)
	}
	if err := w.WriteByte(1); err != nil {
		return err
	}
	if err := writeUintN(w, ver, 8); err != nil {
		return err
	}
	if err := writeUintN(w, uint64(len(value)), 4); err != nil {
		return err
	}
	_, err := w.Write(value)
	return err
}

// ReadGetsResponseInto parses one GETS response, appending the value to
// dst. With sufficient dst capacity it performs no heap allocation; on
// error dst is returned un-grown.
func ReadGetsResponseInto(r *bufio.Reader, dst []byte) (out []byte, ver uint64, found bool, err error) {
	fb, err := r.ReadByte()
	if err != nil {
		return dst, 0, false, err
	}
	if ver, err = readUintN(r, 8); err != nil {
		return dst, 0, false, unexpected(err)
	}
	size, err := readUintN(r, 4)
	if err != nil {
		return dst, 0, false, unexpected(err)
	}
	if size > MaxValueSize {
		return dst, 0, false, fmt.Errorf("protocol: response size %d exceeds maximum %d", size, MaxValueSize)
	}
	n := len(dst)
	dst = append(dst, make([]byte, size)...)
	if _, err := io.ReadFull(r, dst[n:]); err != nil {
		return dst[:n], 0, false, unexpected(err)
	}
	return dst, ver, fb != 0, nil
}

// WritePurgeResponse serializes one PURGE response: the resume cursor
// (ScanDone once complete) and how many entries this batch removed.
func WritePurgeResponse(w *bufio.Writer, next uint64, removed uint32) error {
	if err := writeUintN(w, next, 8); err != nil {
		return err
	}
	return writeUintN(w, uint64(removed), 4)
}

// ReadPurgeResponse parses one PURGE response.
func ReadPurgeResponse(r *bufio.Reader) (next uint64, removed uint32, err error) {
	next, err = readUintN(r, 8)
	if err != nil {
		return 0, 0, err
	}
	rm, err := readUintN(r, 4)
	if err != nil {
		return 0, 0, unexpected(err)
	}
	return next, uint32(rm), nil
}

// unexpected converts a mid-frame EOF into io.ErrUnexpectedEOF so callers
// can distinguish clean shutdown from truncation.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// --- string-key routing (the paper's §8.2 extension) ---
//
// A string key is hashed onto the fixed 60-bit key space; the stored
// value embeds the key string so a 60-bit collision is detected at read
// time and reported as a miss (cache semantics make that correct). The
// same framing is used by the client-side StringTable and the server-side
// GET_STR/SET_STR handlers, so entries written through either surface are
// readable through the other.

// HashStringKey maps a string key onto the 60-bit fixed key space
// (FNV-1a, masked).
func HashStringKey(key []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(key)
	return h.Sum64() & maxFixedKey
}

// AppendStringEntry appends the stored-entry encoding of (key, value) —
// klen(4) | key | value — to dst and returns the extended slice. The
// canonical implementation lives in internal/partition (the RMW engine
// must re-frame entries and cannot import this package).
func AppendStringEntry(dst, key, value []byte) []byte {
	return partition.AppendStringEntry(dst, key, value)
}

// CutStringEntry splits a stored entry, returning the embedded value if
// the embedded key matches key. A mismatch — a 60-bit hash collision or a
// corrupt entry — reports ok=false, which callers treat as a miss.
func CutStringEntry(raw, key []byte) (value []byte, ok bool) {
	return partition.CutStringEntry(raw, key)
}
