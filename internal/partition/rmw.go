package partition

import (
	"encoding/binary"
	"strconv"
	"time"
)

// This file is the partition-level read-modify-write engine behind the
// protocol v4 op set (CAS, ADD/REPLACE, APPEND/PREPEND, INCR/DECR, TOUCH)
// and the memcached text front-end built on it. An RMW executes entirely
// on the goroutine that owns the store — CPHASH's server goroutine,
// LOCKHASH's caller under the partition spinlock — so the read, the
// derivation and the write are atomic by construction, with no additional
// locking on any path.
//
// Durability reuses the ordinary change stream: a successful RMW stores a
// brand-new element and MarkReady streams its RESULTING state (value,
// expiry, version) through the ChangeSink. The WAL therefore never logs
// "increment by 5", only "the value is now 12 with version 7", which makes
// recovery, replica apply and slot migration replay idempotent and keeps
// CAS versions stable across all three.

// RMWOp selects the read-modify-write flavor.
type RMWOp uint8

const (
	// RMWCas stores Val iff the entry exists and its version equals Ver.
	RMWCas RMWOp = iota + 1
	// RMWAdd stores Val iff the key is absent.
	RMWAdd
	// RMWReplace stores Val iff the key is present.
	RMWReplace
	// RMWAppend concatenates Val after the existing value (expiry kept).
	RMWAppend
	// RMWPrepend concatenates Val before the existing value (expiry kept).
	RMWPrepend
	// RMWIncr adds Delta to the decimal value (64-bit unsigned, wraps).
	RMWIncr
	// RMWDecr subtracts Delta from the decimal value, flooring at 0.
	RMWDecr
	// RMWTouch updates the entry's expiry deadline in place.
	RMWTouch
)

func (op RMWOp) String() string {
	switch op {
	case RMWCas:
		return "cas"
	case RMWAdd:
		return "add"
	case RMWReplace:
		return "replace"
	case RMWAppend:
		return "append"
	case RMWPrepend:
		return "prepend"
	case RMWIncr:
		return "incr"
	case RMWDecr:
		return "decr"
	case RMWTouch:
		return "touch"
	default:
		return "rmw?"
	}
}

// RMWStatus is the outcome of a read-modify-write, mirroring memcached's
// reply vocabulary so the text front-end maps it one-to-one.
type RMWStatus uint8

const (
	// RMWStored: the mutation was applied (memcached STORED/TOUCHED, or an
	// incr/decr numeric reply).
	RMWStored RMWStatus = iota + 1
	// RMWNotStored: add on a present key, or replace/append/prepend on an
	// absent one (memcached NOT_STORED).
	RMWNotStored
	// RMWExists: cas version mismatch — the entry changed since it was
	// read (memcached EXISTS).
	RMWExists
	// RMWNotFound: cas/incr/decr/touch addressed an absent key (memcached
	// NOT_FOUND).
	RMWNotFound
	// RMWBadValue: incr/decr on a non-numeric value, or a value too short
	// for the declared opaque prefix (memcached CLIENT_ERROR).
	RMWBadValue
	// RMWTooLarge: the derived value exceeds MaxVal (memcached
	// SERVER_ERROR object too large).
	RMWTooLarge
	// RMWNoSpace: the store could not allocate room even after eviction.
	RMWNoSpace
)

func (st RMWStatus) String() string {
	switch st {
	case RMWStored:
		return "stored"
	case RMWNotStored:
		return "not_stored"
	case RMWExists:
		return "exists"
	case RMWNotFound:
		return "not_found"
	case RMWBadValue:
		return "bad_value"
	case RMWTooLarge:
		return "too_large"
	case RMWNoSpace:
		return "no_space"
	default:
		return "status?"
	}
}

// RMWReq carries one read-modify-write through the stack: the kvserver
// fills the operation fields, the owning goroutine executes Store.RMW and
// writes the outcome fields before the reply message is published (the
// SPSC ring's release/acquire pair makes them visible to the client).
type RMWReq struct {
	// Op selects the flavor.
	Op RMWOp
	// StrKey, when non-nil, marks the entry as string-keyed: the stored
	// value embeds klen|key framing (see AppendStringEntry) and the RMW
	// operates on the embedded value. A framing mismatch — a 60-bit hash
	// collision — counts as "absent", the same last-writer-wins semantics
	// SET_STR has.
	StrKey []byte
	// Val is the new value for Cas/Add/Replace and the concatenated bytes
	// for Append/Prepend. Unused by Incr/Decr/Touch.
	Val []byte
	// Ver is the expected version for Cas.
	Ver uint64
	// Delta is the Incr/Decr operand.
	Delta uint64
	// TTL is the relative time-to-live in milliseconds for Cas, Add,
	// Replace and Touch (0 = never expires). Append/Prepend/Incr/Decr keep
	// the existing entry's expiry.
	TTL uint32
	// Prefix is the length of an opaque value header preserved verbatim by
	// Append/Prepend/Incr/Decr and excluded from numeric parsing (the text
	// front-end stores memcached flags there). Cas/Add/Replace values
	// arrive already framed by the caller, so Prefix does not apply.
	Prefix int
	// MaxVal bounds the size of a derived (append/prepend) value,
	// including framing; 0 = unbounded.
	MaxVal int

	// Outcome, written by the owning goroutine.
	Status RMWStatus
	// OutVer is the resulting element's version for a stored outcome, or
	// the current version on RMWExists (so a caller can retry a cas
	// without an extra gets round trip).
	OutVer uint64
	// Num is the resulting numeric value for a stored Incr/Decr.
	Num uint64
}

// RMW executes one read-modify-write against the store. It must run on
// the goroutine that owns the store, like every other mutation.
func (s *Store) RMW(k Key, r *RMWReq) {
	r.Status, r.OutVer, r.Num = 0, 0, 0
	var e Element
	if ref, h := s.find(k); h != nil {
		if h.expireAt() != 0 && h.expired(s.clock()) {
			s.expireElement(ref)
		} else if h.is(flagReady) {
			// Ready only: an insert still in flight from another client has
			// unpublished bytes, so the entry is invisible, as in Lookup.
			e = s.Elem(ref)
		}
	}
	// Unwrap string-entry framing. On a mismatch the resident entry
	// belongs to a different (colliding) key, so ours is absent.
	var old []byte
	if e != nil {
		if r.StrKey != nil {
			v, ok := CutStringEntry(e.Value(), r.StrKey)
			if !ok {
				e = nil
			} else {
				old = v
			}
		} else {
			old = e.Value()
		}
	}

	switch r.Op {
	case RMWCas:
		if e == nil {
			r.Status = RMWNotFound
			return
		}
		if e.Version() != r.Ver {
			r.Status = RMWExists
			r.OutVer = e.Version()
			return
		}
		s.rmwStore(k, r, r.Val, s.rmwDeadline(r.TTL))

	case RMWAdd:
		if e != nil {
			r.Status = RMWNotStored
			return
		}
		s.rmwStore(k, r, r.Val, s.rmwDeadline(r.TTL))

	case RMWReplace:
		if e == nil {
			r.Status = RMWNotStored
			return
		}
		s.rmwStore(k, r, r.Val, s.rmwDeadline(r.TTL))

	case RMWAppend, RMWPrepend:
		if e == nil {
			r.Status = RMWNotStored
			return
		}
		if len(old) < r.Prefix {
			r.Status = RMWBadValue
			return
		}
		// Compose into the store-owned scratch FIRST: the insert below
		// unlinks the old element before allocating, so reading the old
		// bytes after it would race the arena reuse.
		buf := s.rmwBuf[:0]
		if r.Op == RMWAppend {
			buf = append(buf, old...)
			buf = append(buf, r.Val...)
		} else {
			buf = append(buf, old[:r.Prefix]...)
			buf = append(buf, r.Val...)
			buf = append(buf, old[r.Prefix:]...)
		}
		s.rmwBuf = buf
		s.rmwStore(k, r, buf, e.ExpireAt())

	case RMWIncr, RMWDecr:
		if e == nil {
			r.Status = RMWNotFound
			return
		}
		if len(old) < r.Prefix {
			r.Status = RMWBadValue
			return
		}
		n, ok := ParseDecimal(old[r.Prefix:])
		if !ok {
			r.Status = RMWBadValue
			return
		}
		if r.Op == RMWIncr {
			n += r.Delta // 64-bit wraparound, as memcached's arithmetic does
		} else if n < r.Delta {
			n = 0 // memcached floors decrement at zero
		} else {
			n -= r.Delta
		}
		buf := append(s.rmwBuf[:0], old[:r.Prefix]...)
		buf = strconv.AppendUint(buf, n, 10)
		s.rmwBuf = buf
		s.rmwStore(k, r, buf, e.ExpireAt())
		if r.Status == RMWStored {
			r.Num = n
		}

	case RMWTouch:
		if e == nil {
			r.Status = RMWNotFound
			return
		}
		// Touch rewrites the deadline in place — no new element, and the
		// version is unchanged (memcached touch does not bump cas). The
		// new state still streams through the sink so a replayed log
		// reproduces the deadline.
		newExp := s.rmwDeadline(r.TTL)
		if e.ExpireAt() != 0 && newExp == 0 {
			s.ttlElems--
		} else if e.ExpireAt() == 0 && newExp != 0 {
			s.ttlElems++
		}
		(*record)(e).put64(recExpire, uint64(newExp))
		if s.sink != nil {
			s.sink.Set(k, e.Value(), newExp, e.Version())
		}
		r.OutVer = e.Version()
		r.Status = RMWStored

	default:
		r.Status = RMWBadValue
	}
}

// rmwStore inserts the derived value (re-framing string-keyed entries) and
// publishes it. val must NOT alias the old element's arena bytes — the
// insert unlinks the old element first; callers compose derived values in
// s.rmwBuf for exactly this reason.
func (s *Store) rmwStore(k Key, r *RMWReq, val []byte, expireAt int64) {
	size := len(val)
	if r.StrKey != nil {
		size += 4 + len(r.StrKey)
	}
	if r.MaxVal > 0 && size > r.MaxVal {
		r.Status = RMWTooLarge
		return
	}
	e := s.InsertExpireVer(k, size, expireAt, 0)
	if e == nil {
		r.Status = RMWNoSpace
		return
	}
	dst := e.Value()
	if r.StrKey != nil {
		binary.LittleEndian.PutUint32(dst, uint32(len(r.StrKey)))
		copy(dst[4:], r.StrKey)
		copy(dst[4+len(r.StrKey):], val)
	} else {
		copy(dst, val)
	}
	s.MarkReady(e)
	r.OutVer = e.Version()
	r.Status = RMWStored
	s.Decref(e)
}

// rmwDeadline converts a millisecond TTL to an absolute deadline on the
// store's clock; 0 (and overflow) mean "never expires".
func (s *Store) rmwDeadline(ttl uint32) int64 {
	if ttl == 0 {
		return 0
	}
	now := s.clock()
	d := now + int64(ttl)*int64(time.Millisecond)
	if d < now {
		return 0
	}
	return d
}

// ParseDecimal parses an unsigned decimal byte string without allocating
// (strconv.ParseUint would force a string conversion on the hot path).
// Multiplication wraps modulo 2^64 like memcached's arithmetic; anything
// but 1–20 ASCII digits is rejected. Exported so the single-lock baseline
// server mirrors the engine's incr/decr semantics exactly.
func ParseDecimal(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 20 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}

// --- string-entry framing ---
//
// A string key is hashed onto the fixed 60-bit key space and the stored
// value embeds the key so a hash collision is detected at read time. The
// framing lives here (not in internal/protocol) because the RMW engine
// must unwrap and re-frame entries and partition cannot import protocol;
// protocol re-exports these under the same names.

// AppendStringEntry appends the stored-entry encoding of (key, value) —
// klen(4) | key | value — to dst and returns the extended slice.
func AppendStringEntry(dst, key, value []byte) []byte {
	var klen [4]byte
	binary.LittleEndian.PutUint32(klen[:], uint32(len(key)))
	dst = append(dst, klen[:]...)
	dst = append(dst, key...)
	return append(dst, value...)
}

// CutStringEntry splits a stored entry, returning the embedded value if
// the embedded key matches key. A mismatch — a 60-bit hash collision or a
// corrupt entry — reports ok=false, which callers treat as a miss.
func CutStringEntry(raw, key []byte) (value []byte, ok bool) {
	if len(raw) < 4 {
		return nil, false
	}
	// Width-safe bounds check: a crafted 32-bit klen must not overflow
	// int arithmetic on 32-bit platforms.
	klen := uint64(binary.LittleEndian.Uint32(raw))
	if klen+4 > uint64(len(raw)) {
		return nil, false
	}
	if string(raw[4:4+klen]) != string(key) {
		return nil, false
	}
	return raw[4+klen:], true
}
