package partition

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"
	"time"
)

// FuzzStore decodes its input into a sequence of store operations on a
// partition small enough that every few inserts evict, and checks them
// against a map model: inserts of 0–300 B with and without a TTL and an
// explicit version, NOT_READY inserts published later, lookups whose
// references stay pinned across overwrite, eviction and delete, deletes,
// read-modify-writes, bucket-budgeted scans, purges, clock steps and
// sweeps, under both eviction policies. After every step the store must
// pass CheckInvariants, serve exactly the model's visible entries (a model
// entry may vanish only in a step that evicted), and leave every pinned and
// every unpublished value byte-for-byte intact.
func FuzzStore(f *testing.F) {
	f.Add([]byte{0, 0, 1, 40, 0, 2, 1, 3, 1, 0, 4, 5, 200, 0, 9, 0, 1, 2, 3, 4})
	f.Add([]byte{1, 0, 2, 255, 0, 0, 3, 255, 1, 2, 2, 1, 7, 3, 0, 6, 9, 9, 8, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		newStoreModel(t, data).run()
	})
}

const (
	fuzzKeys   = 12  // key space: small, so operations collide
	fuzzMaxVal = 300 // largest inserted value
	fuzzMaxRMW = 400 // RMWReq.MaxVal: append/prepend beyond it is TooLarge
	fuzzPins   = 8   // references held at once
)

// melem is the model of one inserted element.
type melem struct {
	key    Key
	val    []byte
	ver    uint64
	expire int64
	ready  bool
	e      Element // the store's handle, while the element is unpublished
}

// pin is a reference held by the fuzzer: the handle and what it must read.
type pin struct {
	e   Element
	key Key
	val []byte
	ver uint64
}

type storeModel struct {
	t    *testing.T
	data []byte
	s    *Store
	clk  *fakeClock

	cur     map[Key]*melem // the model's linked element per key
	pending []*melem       // inserted, not yet published (ready or dead)
	pins    []pin
	maxVer  uint64
	step    int
}

func newStoreModel(t *testing.T, data []byte) *storeModel {
	m := &storeModel{t: t, data: data, clk: &fakeClock{now: 1}, cur: map[Key]*melem{}}
	policy := EvictLRU
	if m.next()&1 == 1 {
		policy = EvictRandom
	}
	m.s = MustStore(Config{
		CapacityBytes: CapacityForValues(6, 96),
		Buckets:       8,
		Policy:        policy,
		Seed:          uint64(m.next()) + 1,
		Clock:         m.clk.Now,
	})
	return m
}

// next consumes one input byte; an exhausted input reads as zeros.
func (m *storeModel) next() byte {
	if len(m.data) == 0 {
		return 0
	}
	b := m.data[0]
	m.data = m.data[1:]
	return b
}

func (m *storeModel) fatalf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("step %d: %s", m.step, fmt.Sprintf(format, args...))
}

func (m *storeModel) expired(e *melem) bool { return e.expire != 0 && m.clk.now >= e.expire }

// visible reports the model's entry for k if a lookup must find it.
func (m *storeModel) visible(k Key) *melem {
	if e := m.cur[k]; e != nil && e.ready && !m.expired(e) {
		return e
	}
	return nil
}

// unlink drops k's linked element from the model.
func (m *storeModel) unlink(k Key) { delete(m.cur, k) }

// fill writes a value derived from the step into dst.
func (m *storeModel) fill(dst []byte) {
	for i := range dst {
		dst[i] = byte(m.step*7 + i)
	}
}

// version checks a freshly stored element's version: the requested one,
// or a new one above everything the store has issued.
func (m *storeModel) version(got, want uint64) {
	m.t.Helper()
	if want != 0 && got != want {
		m.fatalf("explicit version %d stored as %d", want, got)
	}
	if want == 0 && got <= m.maxVer {
		m.fatalf("assigned version %d not above %d", got, m.maxVer)
	}
	m.maxVer = max(m.maxVer, got)
}

func (m *storeModel) run() {
	for len(m.data) > 0 {
		m.step++
		evictions := m.s.Stats().Evictions
		switch op := m.next() % 12; op {
		case 0, 1:
			m.insert(op == 1)
		case 2:
			m.publish()
		case 3:
			m.lookup()
		case 4:
			m.unpin()
		case 5:
			m.delete()
		case 6, 7:
			m.rmw()
		case 8:
			m.scan()
		case 9:
			m.purge()
		case 10:
			m.clk.Advance(int64(m.next()) * 4)
		case 11:
			m.s.SweepExpired(int(m.next() % 4))
		}
		m.check(m.s.Stats().Evictions > evictions)
	}
	for len(m.pins) > 0 {
		m.unpin()
	}
	for len(m.pending) > 0 {
		m.publish()
	}
	m.check(false)
	if m.s.Len() == 0 && m.s.UsedBytes() != 0 {
		m.fatalf("empty store holds %d bytes", m.s.UsedBytes())
	}
}

// insert stores a fresh value; hold leaves it NOT_READY for a later publish.
func (m *storeModel) insert(hold bool) {
	k := Key(m.next() % fuzzKeys)
	size := int(m.next()) * fuzzMaxVal / 255
	flags := m.next()
	var ttl time.Duration
	if flags&1 != 0 {
		ttl = time.Duration(1 + int(m.next())*8)
	}
	var ver uint64
	if flags&2 != 0 {
		ver = m.maxVer + 1 + uint64(m.next())
	}
	m.unlink(k)
	e := m.s.InsertTTLVer(k, size, ttl, ver)
	if e == nil {
		// With nothing pinned, eviction can always empty the arena.
		if int(blockFor(size+HeaderBytes)) <= m.s.CapacityBytes() && len(m.pins)+len(m.pending) == 0 {
			m.fatalf("Insert(%d, %d B) failed with nothing pinned", k, size)
		}
		return
	}
	if e.Key() != k || e.Size() != size || e.Ready() {
		m.fatalf("Insert(%d, %d B) = key %d, %d B, ready %v", k, size, e.Key(), e.Size(), e.Ready())
	}
	m.version(e.Version(), ver)
	me := &melem{key: k, val: make([]byte, size), ver: e.Version(), e: e}
	if ttl > 0 {
		me.expire = m.clk.now + int64(ttl)
	}
	if e.ExpireAt() != me.expire {
		m.fatalf("Insert(%d): expiry %d, want %d", k, e.ExpireAt(), me.expire)
	}
	m.fill(me.val)
	copy(e.Value(), me.val)
	m.cur[k] = me
	m.pending = append(m.pending, me)
	if !hold {
		m.publish()
	}
}

// publish marks the newest unpublished insert ready and drops its reference.
func (m *storeModel) publish() {
	if len(m.pending) == 0 {
		return
	}
	me := m.pending[len(m.pending)-1]
	m.pending = m.pending[:len(m.pending)-1]
	m.s.MarkReady(me.e)
	m.s.Decref(me.e)
	me.ready, me.e = true, nil
}

func (m *storeModel) lookup() {
	k := Key(m.next() % fuzzKeys)
	hold := m.next()&1 == 0
	want := m.visible(k)
	e := m.s.Lookup(k)
	if e == nil {
		if want != nil {
			m.fatalf("Lookup(%d) missed; model holds version %d", k, want.ver)
		}
		if me := m.cur[k]; me != nil && me.ready {
			m.unlink(k) // expired, and reclaimed by the lookup
		}
		return
	}
	if want == nil || !bytes.Equal(e.Value(), want.val) || e.Version() != want.ver || e.Key() != k {
		m.fatalf("Lookup(%d) = %q v%d; model %+v", k, e.Value(), e.Version(), want)
	}
	if hold && len(m.pins) < fuzzPins {
		m.pins = append(m.pins, pin{e: e, key: k, val: want.val, ver: want.ver})
	} else {
		m.s.Decref(e)
	}
}

func (m *storeModel) unpin() {
	if len(m.pins) == 0 {
		return
	}
	i := int(m.next()) % len(m.pins)
	m.s.Decref(m.pins[i].e)
	m.pins = append(m.pins[:i], m.pins[i+1:]...)
}

func (m *storeModel) delete() {
	k := Key(m.next() % fuzzKeys)
	me := m.cur[k]
	want := me != nil && !m.expired(me)
	if got := m.s.Delete(k); got != want {
		m.fatalf("Delete(%d) = %v, model %v", k, got, want)
	}
	m.unlink(k)
}

// rmw runs one read-modify-write and predicts its outcome from the model.
func (m *storeModel) rmw() {
	k := Key(m.next() % fuzzKeys)
	r := RMWReq{Op: RMWOp(1 + m.next()%8), MaxVal: fuzzMaxRMW, TTL: uint32(m.next() % 3)}
	arg := m.next()
	switch r.Op {
	case RMWIncr, RMWDecr:
		r.Delta = uint64(arg)
	default:
		r.Val = make([]byte, int(arg)%40)
		m.fill(r.Val)
		if arg&1 == 0 && r.Op != RMWAppend && r.Op != RMWPrepend {
			r.Val = strconv.AppendUint(r.Val[:0], uint64(arg), 10) // a number for incr/decr
		}
	}
	cur := m.visible(k)
	if cur != nil && r.Op == RMWCas {
		r.Ver = cur.ver
		if arg&2 != 0 {
			r.Ver++ // stale
		}
	}
	if me := m.cur[k]; me != nil && m.expired(me) {
		m.unlink(k) // the RMW reclaims it
	}
	deadline := int64(0)
	if r.TTL != 0 {
		deadline = m.clk.now + int64(r.TTL)*int64(time.Millisecond)
	}

	// Predict.
	var (
		status = RMWStored
		val    []byte
		expire = deadline
		num    uint64
	)
	switch r.Op {
	case RMWCas:
		switch {
		case cur == nil:
			status = RMWNotFound
		case cur.ver != r.Ver:
			status = RMWExists
		}
		val = r.Val
	case RMWAdd:
		if cur != nil {
			status = RMWNotStored
		}
		val = r.Val
	case RMWReplace:
		if cur == nil {
			status = RMWNotStored
		}
		val = r.Val
	case RMWAppend, RMWPrepend:
		if cur == nil {
			status = RMWNotStored
			break
		}
		if r.Op == RMWAppend {
			val = append(append([]byte(nil), cur.val...), r.Val...)
		} else {
			val = append(append([]byte(nil), r.Val...), cur.val...)
		}
		expire = cur.expire
		if len(val) > fuzzMaxRMW {
			status = RMWTooLarge
		}
	case RMWIncr, RMWDecr:
		if cur == nil {
			status = RMWNotFound
			break
		}
		n, ok := ParseDecimal(cur.val)
		if !ok {
			status = RMWBadValue
			break
		}
		switch {
		case r.Op == RMWIncr:
			n += r.Delta
		case n < r.Delta:
			n = 0
		default:
			n -= r.Delta
		}
		num, val, expire = n, strconv.AppendUint(nil, n, 10), cur.expire
	case RMWTouch:
		if cur == nil {
			status = RMWNotFound
		}
	}

	m.s.RMW(k, &r)
	if r.Status == RMWNoSpace && status == RMWStored && r.Op != RMWTouch {
		m.unlink(k) // the insert unlinked the old element, then found no room
		return
	}
	if r.Status != status {
		m.fatalf("RMW %v on %d: %v, model %v", r.Op, k, r.Status, status)
	}
	switch {
	case status == RMWExists && r.OutVer != cur.ver:
		m.fatalf("cas on %d: current version %d, model %d", k, r.OutVer, cur.ver)
	case status != RMWStored:
	case r.Op == RMWTouch:
		if r.OutVer != cur.ver {
			m.fatalf("touch on %d changed version %d → %d", k, cur.ver, r.OutVer)
		}
		cur.expire = deadline
	default:
		if (r.Op == RMWIncr || r.Op == RMWDecr) && r.Num != num {
			m.fatalf("%v on %d = %d, model %d", r.Op, k, r.Num, num)
		}
		m.version(r.OutVer, 0)
		m.cur[k] = &melem{key: k, val: val, ver: r.OutVer, expire: expire, ready: true}
	}
}

// scan walks the whole store with small bucket and entry budgets; every
// visible entry must come back exactly once.
func (m *storeModel) scan() {
	maxBuckets, maxEntries := 1+int(m.next()%4), 1+int(m.next()%3)
	seen := map[Key]bool{}
	for b, done := 0, false; !done; {
		var out []ScanEntry
		prev := b
		out, b, done = m.s.AppendScan(nil, b, maxBuckets, maxEntries, nil)
		if b <= prev && !done {
			m.fatalf("AppendScan made no progress at bucket %d", prev)
		}
		for _, se := range out {
			if seen[se.Key] {
				m.fatalf("AppendScan returned key %d twice", se.Key)
			}
			seen[se.Key] = true
		}
	}
	for k := Key(0); k < fuzzKeys; k++ {
		if seen[k] != (m.visible(k) != nil) {
			m.fatalf("AppendScan saw key %d: %v, model visible: %v", k, seen[k], m.visible(k) != nil)
		}
	}
}

// purge removes the even (or odd) keys of a bucket range.
func (m *storeModel) purge() {
	start, n := int(m.next()%8), 1+int(m.next()%8)
	parity := Key(m.next() & 1)
	filter := func(k Key) bool { return k&1 == parity }
	want := 0
	for k, me := range m.cur {
		if b := int(m.s.bucketIndex(k)); !filter(k) || b < start || b >= start+n {
			continue
		}
		if !m.expired(me) {
			want++
		}
		m.unlink(k)
	}
	if got, _, _ := m.s.PurgeBuckets(start, n, filter); got != want {
		m.fatalf("PurgeBuckets(%d, %d) removed %d, model %d", start, n, got, want)
	}
}

// check compares the store with the model after a step. A model entry
// that is no longer linked is legal only if the step evicted; expired
// entries may linger until reclaimed and are simply forgotten.
func (m *storeModel) check(evicted bool) {
	m.t.Helper()
	if err := m.s.CheckInvariants(); err != nil {
		m.fatalf("%v", err)
	}
	for _, p := range m.pins {
		if !bytes.Equal(p.e.Value(), p.val) || p.e.Key() != p.key || p.e.Version() != p.ver {
			m.fatalf("pinned key %d changed under its reference: %q v%d", p.key, p.e.Value(), p.e.Version())
		}
	}
	for _, me := range m.pending {
		if !bytes.Equal(me.e.Value(), me.val) {
			m.fatalf("unpublished value of key %d changed", me.key)
		}
	}
	visible := map[Key]ScanEntry{}
	entries, _, _ := m.s.AppendScan(nil, 0, 0, 0, nil)
	for _, se := range entries {
		visible[se.Key] = se
	}
	for k, me := range m.cur {
		if m.expired(me) {
			m.unlink(k)
			continue
		}
		linked := false
		if me.ready {
			_, linked = visible[k]
		} else {
			r, _ := m.s.find(k)
			linked = r == m.s.Ref(me.e)
		}
		if !linked {
			if !evicted {
				m.fatalf("key %d (version %d) vanished in a step that evicted nothing", k, me.ver)
			}
			m.unlink(k)
		}
	}
	for k, se := range visible {
		want := m.visible(k)
		if want == nil {
			m.fatalf("store serves key %d (version %d) the model does not hold", k, se.Version)
		}
		var ttl time.Duration
		if want.expire != 0 {
			ttl = time.Duration(want.expire - m.clk.now)
		}
		if !bytes.Equal(se.Value, want.val) || se.Version != want.ver || se.TTL != ttl {
			m.fatalf("key %d = %q v%d ttl %v; model %q v%d ttl %v", k, se.Value, se.Version, se.TTL, want.val, want.ver, ttl)
		}
	}
}
