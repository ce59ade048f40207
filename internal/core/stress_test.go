package core

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"cphash/internal/partition"
)

var stressSeed = flag.Int64("stress.seed", 0, "seed of TestSmallRingStress (0 = from the clock)")

// The stress below drives rings of 4 and 8 messages — smaller than any
// pipeline — so that every send path runs full: a request or a Decref
// waiting for ring space, and one-message and two-message lookups
// interleaved with inserts of both sizes on one ring. Each client owns the
// keys ≡ its id and checks them against an exact model: a key's
// operations share one FIFO ring and the server publishes an insert before
// it replies, so every op behind an executed insert must see it, whether
// or not the client has polled the insert's reply. All clients also
// hammer a few shared keys, where only integrity can be checked (any
// value read was written whole by someone).

type stressKind uint8

const (
	stressLookup stressKind = iota
	stressInsert
	stressDelete
	stressRMW
)

// stressOp is one issued operation awaiting its model check.
type stressOp struct {
	o      *Op
	kind   stressKind
	key    Key
	val    []byte // insert payload / RMW operand, unchanged until Done; a held hit's bytes
	ver    uint64 // explicit insert version (0 = none)
	shared bool
	hold   int // lookups: harvest rounds to keep the hit pinned before Release
}

// stressKey is the model of one owned key.
type stressKey struct {
	present bool   // an element is linked
	val     []byte // its value
	ver     uint64 // its CAS version; 0 = not yet observed
	lastVer uint64 // a version seen by an earlier lookup, for CAS operands
}

type stressClient struct {
	t      *testing.T
	c      *Client
	id, n  int
	rng    *rand.Rand
	keys   map[Key]*stressKey
	queue  []*stressOp // issue order
	held   []*stressOp // completed lookups pinned a little longer
	nextV  uint64
	errorf func(format string, args ...any)
}

var stressSizes = []int{0, 1, 8, 63, 64, 65, 66, 200}

const (
	stressOwnedKeys  = 24
	stressSharedKeys = 4
	stressSharedBase = Key(1 << 20)
)

// stressValue builds a self-describing value: every byte follows from the
// key, the first byte (a tag) and the length.
func stressValue(k Key, tag byte, n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = tag + byte(i)*(byte(k)|1)
	}
	return v
}

func stressValueIntact(k Key, v []byte) bool {
	return len(v) == 0 || bytes.Equal(v, stressValue(k, v[0], len(v)))
}

func (sc *stressClient) gosched() {
	if sc.rng.Intn(4) == 0 {
		runtime.Gosched()
	}
}

func (sc *stressClient) ownedKey() Key {
	return Key(sc.rng.Intn(stressOwnedKeys)*sc.n + sc.id)
}

// issue sends one random asynchronous operation.
func (sc *stressClient) issue() {
	so := &stressOp{}
	if sc.rng.Intn(5) == 0 {
		so.shared = true
		so.key = stressSharedBase + Key(sc.rng.Intn(stressSharedKeys))
	} else {
		so.key = sc.ownedKey()
	}
	size := stressSizes[sc.rng.Intn(len(stressSizes))]
	var mk *stressKey
	if !so.shared {
		mk = sc.keys[so.key]
		if mk == nil {
			mk = &stressKey{}
			sc.keys[so.key] = mk
		}
	}
	switch r := sc.rng.Intn(10); {
	case r < 4:
		so.kind = stressLookup
		so.hold = sc.rng.Intn(3)
		so.o = sc.c.LookupAsync(so.key)
	case r < 7:
		so.kind = stressInsert
		so.val = stressValue(so.key, byte(sc.rng.Intn(256)), size)
		ttl := time.Duration(sc.rng.Intn(2)) * time.Hour // rides the arg word; never elapses
		if !so.shared && sc.rng.Intn(4) == 0 {
			sc.nextV += 1 << 20 // explicit versions must stay unique per key
			so.ver = sc.nextV + uint64(sc.id)
		}
		so.o = sc.c.InsertTTLVerAsync(so.key, so.val, ttl, so.ver)
	case r < 8:
		so.kind = stressDelete
		so.o = sc.c.DeleteAsync(so.key)
	default:
		if so.shared { // RMW outcomes on shared keys depend on the other clients
			so.kind = stressLookup
			so.o = sc.c.LookupAsync(so.key)
			break
		}
		so.kind = stressRMW
		req := partition.RMWReq{Op: []partition.RMWOp{partition.RMWAdd, partition.RMWReplace, partition.RMWAppend, partition.RMWCas}[sc.rng.Intn(4)]}
		switch req.Op {
		case partition.RMWAppend:
			so.val = []byte{byte(sc.rng.Intn(256)), 0xA5}[:1+sc.rng.Intn(2)]
		case partition.RMWCas:
			req.Ver = mk.lastVer
			fallthrough
		default:
			so.val = stressValue(so.key, byte(sc.rng.Intn(256)), size)
		}
		req.Val = so.val
		so.o = sc.c.RMWAsync(so.key, req)
	}
	sc.queue = append(sc.queue, so)
}

// harvest checks and releases completed operations in issue order, so the
// model sees each key's operations in the order its server executed them.
func (sc *stressClient) harvest() {
	n := 0
	for _, so := range sc.queue {
		if !so.o.Done() {
			break
		}
		n++
		sc.check(so)
		if so.kind == stressLookup && so.hold > 0 {
			// Keep the hit (for a large one, the server's element) pinned
			// across later traffic.
			so.val = append([]byte(nil), so.o.Value()...)
			sc.held = append(sc.held, so)
			continue
		}
		sc.c.Release(so.o)
		sc.gosched()
	}
	sc.queue = sc.queue[n:]
	kept := sc.held[:0]
	for _, so := range sc.held {
		if so.hold--; so.hold > 0 {
			kept = append(kept, so)
			continue
		}
		// A pinned hit must still read what it read when it completed,
		// whatever replaced or deleted the key since.
		if !bytes.Equal(so.o.Value(), so.val) {
			sc.errorf("key %d: pinned value changed before Release", so.key)
		}
		sc.c.Release(so.o)
	}
	sc.held = kept
}

// check applies one completed operation to the model.
func (sc *stressClient) check(so *stressOp) {
	o := so.o
	if so.shared {
		if so.kind == stressLookup && o.Hit() && (!stressValueIntact(so.key, o.Value()) || o.Size() != len(o.Value())) {
			sc.errorf("shared key %d: torn value % x", so.key, o.Value())
		}
		if so.kind == stressInsert && !o.Hit() {
			sc.errorf("shared key %d: insert found no space", so.key)
		}
		return
	}
	mk := sc.keys[so.key]
	switch so.kind {
	case stressLookup:
		if o.Hit() != mk.present {
			sc.errorf("key %d: lookup hit = %v, model present = %v", so.key, o.Hit(), mk.present)
			return
		}
		if !o.Hit() {
			if o.Value() != nil || o.Size() != 0 || o.Version() != 0 {
				sc.errorf("key %d: a miss carries a value", so.key)
			}
			return
		}
		if !bytes.Equal(o.Value(), mk.val) || o.Size() != len(mk.val) {
			sc.errorf("key %d: read %d bytes % x, want %d bytes % x", so.key, o.Size(), o.Value(), len(mk.val), mk.val)
		}
		if mk.ver != 0 && o.Version() != mk.ver {
			sc.errorf("key %d: version %d, want %d", so.key, o.Version(), mk.ver)
		}
		mk.ver = o.Version()
		mk.lastVer = mk.ver
	case stressInsert:
		if !o.Hit() {
			sc.errorf("key %d: insert of %d bytes found no space", so.key, len(so.val))
		}
		*mk = stressKey{present: true, val: so.val, ver: so.ver, lastVer: mk.lastVer}
	case stressDelete:
		if o.Hit() != mk.present {
			sc.errorf("key %d: delete found = %v, model present = %v", so.key, o.Hit(), mk.present)
		}
		mk.present, mk.val, mk.ver = false, nil, 0
	case stressRMW:
		r := o.RMW()
		saw := false // did the RMW act on a visible element?
		switch r.Status {
		case partition.RMWStored:
			saw = r.Op != partition.RMWAdd
		case partition.RMWNotStored:
			saw = r.Op == partition.RMWAdd
		case partition.RMWExists:
			saw = true
		case partition.RMWNotFound:
		default:
			sc.errorf("key %d: %v returned %v", so.key, r.Op, r.Status)
			return
		}
		if saw != mk.present {
			sc.errorf("key %d: %v returned %v, model present = %v", so.key, r.Op, r.Status, mk.present)
			return
		}
		if r.Op == partition.RMWCas && saw {
			if match := mk.ver == 0 || mk.ver == r.Ver; r.Status == partition.RMWStored && !match ||
				r.Status == partition.RMWExists && mk.ver != 0 && mk.ver == r.Ver {
				sc.errorf("key %d: cas with version %d returned %v, model version %d", so.key, r.Ver, r.Status, mk.ver)
			}
			if r.Status == partition.RMWExists {
				if mk.ver != 0 && r.OutVer != mk.ver {
					sc.errorf("key %d: cas reported current version %d, want %d", so.key, r.OutVer, mk.ver)
				}
				mk.ver = r.OutVer
			}
		}
		if r.Status == partition.RMWStored {
			val := so.val
			if r.Op == partition.RMWAppend {
				val = append(append([]byte{}, mk.val...), so.val...)
			}
			mk.present, mk.val, mk.ver = true, val, r.OutVer
		}
	}
}

// syncStep settles everything in flight and then runs one synchronous
// operation, whose outcome the model predicts exactly.
func (sc *stressClient) syncStep() {
	sc.c.WaitAll()
	sc.harvest()
	k := sc.ownedKey()
	mk := sc.keys[k]
	if mk == nil {
		mk = &stressKey{}
		sc.keys[k] = mk
	}
	switch sc.rng.Intn(3) {
	case 0:
		got, ok := sc.c.Get(k, nil)
		if ok != mk.present || !bytes.Equal(got, mk.val) {
			sc.errorf("key %d: Get = %d bytes, %v; want %d bytes, %v", k, len(got), ok, len(mk.val), mk.present)
		}
	case 1:
		v := stressValue(k, byte(sc.rng.Intn(256)), stressSizes[sc.rng.Intn(len(stressSizes))])
		if !sc.c.Put(k, v) {
			sc.errorf("key %d: Put found no space", k)
		}
		*mk = stressKey{present: true, val: v, lastVer: mk.lastVer}
	case 2:
		if sc.c.Delete(k) != mk.present {
			sc.errorf("key %d: Delete found = %v", k, !mk.present)
		}
		*mk = stressKey{lastVer: mk.lastVer}
	}
}

func (sc *stressClient) run(steps int) {
	sc.c.SetPipeline(1 + sc.rng.Intn(24)) // from below the ring capacity to far above it
	for i := 0; i < steps && !sc.t.Failed(); i++ {
		switch r := sc.rng.Intn(16); {
		case r < 10:
			sc.issue()
		case r < 12:
			sc.c.FlushAll()
		case r < 14:
			sc.c.Poll()
			sc.harvest()
		case r < 15:
			if len(sc.queue) > 0 {
				sc.c.Wait(sc.queue[sc.rng.Intn(len(sc.queue))].o)
				sc.harvest()
			}
		default:
			sc.syncStep()
		}
		sc.gosched()
	}
	sc.c.WaitAll()
	for len(sc.queue) > 0 || len(sc.held) > 0 {
		sc.harvest()
	}
	// Everything is settled: the model is exact and every element ready.
	for k, mk := range sc.keys {
		got, ok := sc.c.Get(k, nil)
		if ok != mk.present || !bytes.Equal(got, mk.val) {
			sc.errorf("key %d at the end: Get = %d bytes, %v; want %d bytes, %v", k, len(got), ok, len(mk.val), mk.present)
		}
	}
	sc.c.Close()
}

// TestSmallRingStress is the randomized small-ring stress of the message
// protocols; rerun a failure with -stress.seed.
func TestSmallRingStress(t *testing.T) { smallRingStress(t) }

func smallRingStress(t *testing.T) {
	seed := *stressSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	steps := 6000
	if testing.Short() {
		steps = 1500
	}
	for _, ringCap := range []int{4, 8} {
		for _, clients := range []int{2, 3} {
			t.Run(fmt.Sprintf("ring%d/clients%d", ringCap, clients), func(t *testing.T) {
				t.Logf("seed %d (rerun with -stress.seed=%d)", seed, seed)
				tb := MustNew(Config{Partitions: 2, RingCapacity: ringCap, CapacityBytes: 1 << 20, MaxClients: clients, Seed: uint64(seed)})
				defer tb.Close()
				var mu sync.Mutex
				var wg sync.WaitGroup
				for id := 0; id < clients; id++ {
					sc := &stressClient{
						t: t, c: tb.MustClient(id), id: id, n: clients,
						rng:  rand.New(rand.NewSource(seed + int64(id)*7919 + int64(ringCap))),
						keys: map[Key]*stressKey{},
					}
					sc.errorf = func(format string, args ...any) {
						mu.Lock()
						defer mu.Unlock()
						t.Errorf("client %d: "+format, append([]any{sc.id}, args...)...)
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						sc.run(steps)
					}()
				}
				wg.Wait()
				tb.Close()
				checkNoLeaks(t, tb)
			})
		}
	}
}
