package core

import (
	"bytes"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"cphash/internal/partition"
)

// value returns n deterministic bytes for key k.
func value(k Key, n int) []byte { return stressValue(k, byte(n), n) }

// TestMessageSizes pins the packing: a request is 32 B (2 per cache line)
// and a reply is a 4 B status, a line of them per reply-ring flush.
func TestMessageSizes(t *testing.T) {
	if got := reflect.TypeOf(request{}).Size(); got != 32 {
		t.Errorf("request is %d B, want 32", got)
	}
	if got := reflect.TypeOf(reply{}).Size(); got != 4 || got*replyLineMsgs != 64 {
		t.Errorf("reply is %d B × %d per flush, want 4 B × 16 (one line)", got, replyLineMsgs)
	}
}

// TestMessageCounts pins the one-message rule as a count the servers make
// themselves: every operation is one request at every size — inserts,
// lookup hits and misses, deletes and RMWs. The count repeats exactly, so
// a regression to two messages fails here and not only in the benchmark's
// core.msgs_per_op.
func TestMessageCounts(t *testing.T) {
	const keys = 7 // per step; distinct keys, so every lookup is a hit
	cases := []struct {
		name       string
		size       int
		viaTTL     bool
		viaVersion bool
	}{
		{name: "0B", size: 0},
		{name: "8B", size: 8},
		{name: "64B", size: 64},
		{name: "64B/ttl", size: 64, viaTTL: true},
		{name: "64B/ver", size: 64, viaVersion: true},
		{name: "65B", size: 65},
		{name: "1KiB", size: 1024},
		{name: "1KiB/ttl", size: 1024, viaTTL: true},
		{name: "1KiB/ver", size: 1024, viaVersion: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := newTestTable(t, Config{})
			c := tb.MustClient(0)
			var ops []*Op
			for k := Key(0); k < keys; k++ {
				var o *Op
				switch {
				case tc.viaTTL:
					o = c.InsertTTLAsync(k, value(k, tc.size), time.Hour)
				case tc.viaVersion:
					o = c.InsertTTLVerAsync(k, value(k, tc.size), 0, 100+k)
				default:
					o = c.InsertAsync(k, value(k, tc.size))
				}
				ops = append(ops, o)
			}
			c.WaitAll()
			for k := Key(0); k < keys; k++ {
				ops = append(ops, c.LookupAsync(k))    // hit
				ops = append(ops, c.LookupAsync(k+50)) // miss
			}
			c.WaitAll()
			for i, o := range ops {
				if i < keys && !o.Hit() {
					t.Fatalf("insert %d failed", i)
				}
				if i >= keys {
					k := o.Key()
					if hit := k < keys; o.Hit() != hit {
						t.Fatalf("lookup %d: hit = %v", k, o.Hit())
					}
					if o.Hit() && !bytes.Equal(o.Value(), value(k, tc.size)) {
						t.Fatalf("lookup %d: wrong bytes", k)
					}
				}
				c.Release(o)
			}
			for k := Key(0); k < keys; k++ {
				if !c.Delete(k) || c.Delete(k+50) {
					t.Fatalf("delete %d: wrong found bit", k)
				}
				for _, op := range []partition.RMWOp{partition.RMWAdd, partition.RMWAppend} {
					r := partition.RMWReq{Op: op, Val: value(k, tc.size)}
					if c.RMW(k, &r); r.Status != partition.RMWStored {
						t.Fatalf("%v %d: %v", op, k, r.Status)
					}
				}
			}
			c.Close()
			tb.Close() // the servers add their message counts as they exit
			st := tb.Stats()
			if st.Inserts != 3*keys || st.Lookups != 2*keys || st.Hits != keys || st.Deletes != keys {
				t.Fatalf("stats = %+v", st)
			}
			// inserts + hits + misses + deletes (found, absent) + RMWs (add, append)
			want := int64(keys * (1 + 1 + 1 + 2 + 2))
			if st.Messages != want {
				t.Fatalf("messages = %d, want %d", st.Messages, want)
			}
			checkNoLeaks(t, tb)
		})
	}
}

// checkNoLeaks inspects the partitions of a closed table (its server
// goroutines have exited, so the stores are safe to touch): a scan must
// see every linked element, and once every key is deleted no byte may stay
// allocated.
func checkNoLeaks(t *testing.T, tb *Table) {
	t.Helper()
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for p, s := range tb.parts {
		entries, _, _ := s.AppendScan(nil, 0, 0, 0, nil)
		if len(entries) != s.Len() {
			t.Fatalf("partition %d: a scan saw %d of %d linked elements", p, len(entries), s.Len())
		}
		for _, e := range entries {
			s.Delete(e.Key)
		}
		if s.Len() != 0 || s.UsedBytes() != 0 {
			t.Fatalf("partition %d: %d elements, %d bytes still allocated after deleting every key", p, s.Len(), s.UsedBytes())
		}
	}
}

// TestInlineEdgeSemantics pins what the server's copy of a hit could
// silently change, on both sides of one cache line.
func TestInlineEdgeSemantics(t *testing.T) {
	var now atomic.Int64
	now.Store(1)
	tb := newTestTable(t, Config{Partitions: 1, Clock: now.Load})
	c := tb.MustClient(0)
	other := tb.MustClient(1)

	lookup := func(k Key) *Op {
		o := c.LookupAsync(k)
		c.Wait(o)
		return o
	}

	// A zero-length value is a hit, not a miss.
	if !c.Put(1, nil) {
		t.Fatal("Put(nil) failed")
	}
	o := lookup(1)
	if !o.Hit() || len(o.Value()) != 0 || o.Size() != 0 {
		t.Fatalf("empty value: hit %v, value %v, size %d", o.Hit(), o.Value(), o.Size())
	}
	c.Release(o)

	for _, size := range []int{8, 64, 65, 300} {
		k := Key(10 + size)
		// Version() of a hit is the version the write reported, which is
		// what GETS hands to a later CAS.
		add := partition.RMWReq{Op: partition.RMWAdd, Val: value(k, size)}
		c.RMW(k, &add)
		o := lookup(k)
		if !o.Hit() || o.Version() != add.OutVer || o.Size() != size || !bytes.Equal(o.Value(), value(k, size)) {
			t.Fatalf("%d B: hit %v, version %d (stored %d), size %d", size, o.Hit(), o.Version(), add.OutVer, o.Size())
		}
		cas := partition.RMWReq{Op: partition.RMWCas, Ver: o.Version(), Val: value(k+1, size)}
		c.Release(o)
		if c.RMW(k, &cas); cas.Status != partition.RMWStored {
			t.Fatalf("%d B: cas with the looked-up version: %v", size, cas.Status)
		}

		// An explicit version survives both insert paths, and later
		// writes are numbered past it.
		ver := 1000 + uint64(size)
		if !c.PutTTLVer(k, value(k, size), time.Hour, ver) {
			t.Fatalf("%d B: PutTTLVer failed", size)
		}
		o = lookup(k)
		if !o.Hit() || o.Version() != ver {
			t.Fatalf("%d B: explicit version %d read back as %d", size, ver, o.Version())
		}
		c.Release(o)
		if !c.Put(k, value(k, size)) {
			t.Fatalf("%d B: Put failed", size)
		}
		o = lookup(k)
		if o.Version() <= ver {
			t.Fatalf("%d B: version %d after explicit %d", size, o.Version(), ver)
		}
		c.Release(o)

		// An expired element is a miss.
		if !c.PutTTL(k, value(k, size), time.Millisecond) {
			t.Fatalf("%d B: PutTTL failed", size)
		}
		now.Add(int64(2 * time.Millisecond))
		if o = lookup(k); o.Hit() || o.Value() != nil {
			t.Fatalf("%d B: expired element is a hit", size)
		}
		c.Release(o)
	}

	// The server publishes every insert before it replies, so even a value
	// past the line hits as soon as its insert was executed, before the
	// inserter has polled the reply.
	for _, size := range []int{64, 65, 1024} {
		k := Key(500 + size)
		before := tb.Stats().Inserts
		ins := other.InsertAsync(k, value(k, size))
		other.FlushAll()
		for tb.Stats().Inserts == before {
			time.Sleep(50 * time.Microsecond) // until the server executed it
		}
		o := lookup(k)
		if !o.Hit() || !bytes.Equal(o.Value(), value(k, size)) {
			t.Fatalf("%d B: lookup before the inserter polled: hit %v, %d bytes", size, o.Hit(), o.Size())
		}
		c.Release(o)
		other.Release(ins)
		other.FlushAll()
		if _, ok := other.Get(k, nil); !ok {
			t.Fatalf("%d B: miss after the insert completed", size)
		}
	}
	c.Close()
	other.Close()
	tb.Close()
	checkNoLeaks(t, tb)
}

// TestInlineOpsDoNotAllocate: a recycled Op carries a lookup and an
// insert through the rings and back without allocating, below and above
// one cache line: the lookup reuses the buffer the Op kept.
func TestInlineOpsDoNotAllocate(t *testing.T) {
	tb := newTestTable(t, Config{Partitions: 1})
	c := tb.MustClient(0)
	defer c.Close()
	for _, size := range []int{64, 1024} {
		val := value(3, size)
		c.Put(3, val)
		var bad string
		allocs := testing.AllocsPerRun(500, func() {
			ins := c.InsertAsync(3, val)
			get := c.LookupAsync(3)
			c.WaitAll()
			if !ins.Hit() || !get.Hit() || len(get.Value()) != len(val) {
				bad = "round trip failed"
			}
			c.Release(ins)
			c.Release(get)
		})
		if bad != "" {
			t.Fatalf("%d B: %s", size, bad)
		}
		if allocs != 0 {
			t.Fatalf("%d B: %v allocations per insert + lookup, want 0", size, allocs)
		}
	}
}
