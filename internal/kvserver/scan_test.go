package kvserver

import (
	"bytes"
	"fmt"
	"testing"

	"cphash/internal/cluster"
	"cphash/internal/protocol"
)

// scanAll drives cursor-chained SCAN round trips until ScanDone.
func (c *wireClient) scanAll(slots *protocol.SlotSet, count uint32) []protocol.ScanEntry {
	c.t.Helper()
	var out []protocol.ScanEntry
	cursor := uint64(0)
	for {
		c.send(protocol.Request{Op: protocol.OpScan, Slots: *slots, Cursor: cursor, Count: count})
		c.w.Flush()
		next, entries, err := protocol.ReadScanResponse(c.r, nil)
		if err != nil {
			c.t.Fatal(err)
		}
		out = append(out, entries...)
		if next == protocol.ScanDone {
			return out
		}
		cursor = next
	}
}

// purgeAll drives cursor-chained PURGE round trips until ScanDone.
func (c *wireClient) purgeAll(slots *protocol.SlotSet) int {
	c.t.Helper()
	total := 0
	cursor := uint64(0)
	for {
		c.send(protocol.Request{Op: protocol.OpPurge, Slots: *slots, Cursor: cursor})
		c.w.Flush()
		next, removed, err := protocol.ReadPurgeResponse(c.r)
		if err != nil {
			c.t.Fatal(err)
		}
		total += int(removed)
		if next == protocol.ScanDone {
			return total
		}
		cursor = next
	}
}

// TestWireScanPurge: entries written through the normal write path come
// back through SCAN exactly once per selected slot — fixed and string
// keys, TTLs preserved — and PURGE removes exactly the selected slots, on
// both backends.
func TestWireScanPurge(t *testing.T) {
	eachBackend(t, 2, func(t *testing.T, srv *Server) {
		c, closeConn := dialT(t, srv.Addr())
		defer closeConn()

		const n = 600
		expect := map[uint64][]byte{} // routed key -> raw stored value
		ttlKeys := map[uint64]bool{}
		for k := uint64(0); k < n; k++ {
			v := []byte(fmt.Sprintf("v-%d", k))
			if k%4 == 0 {
				c.send(protocol.Request{Op: protocol.OpInsertTTL, Key: k, TTL: 60_000, Value: v})
				ttlKeys[k] = true
			} else {
				c.send(protocol.Request{Op: protocol.OpInsert, Key: k, Value: v})
			}
			expect[k] = v
		}
		// A few string keys ride along; their stored value embeds the key.
		for i := 0; i < 20; i++ {
			sk := []byte(fmt.Sprintf("user:%d", i))
			v := []byte(fmt.Sprintf("str-%d", i))
			c.send(protocol.Request{Op: protocol.OpSetStr, StrKey: sk, TTL: 0, Value: v})
			expect[protocol.HashStringKey(sk)] = protocol.AppendStringEntry(nil, sk, v)
		}
		// Barrier: one response-bearing op flushes the silent writes through.
		if _, found := c.get(0); !found {
			t.Fatal("barrier get missed")
		}

		// Scan every slot in small batches.
		var all protocol.SlotSet
		for s := 0; s < cluster.Slots; s++ {
			all.Add(s)
		}
		got := map[uint64][]byte{}
		for _, e := range c.scanAll(&all, 37) {
			if _, dup := got[e.Key]; dup {
				t.Fatalf("key %d scanned twice", e.Key)
			}
			got[e.Key] = e.Value
			if ttlKeys[e.Key] {
				if e.TTL == 0 || e.TTL > 60_000 {
					t.Fatalf("key %d: TTL %d ms", e.Key, e.TTL)
				}
			} else if e.TTL != 0 {
				t.Fatalf("key %d: unexpected TTL %d", e.Key, e.TTL)
			}
		}
		if len(got) != len(expect) {
			t.Fatalf("scan saw %d entries, want %d", len(got), len(expect))
		}
		for k, v := range expect {
			if string(got[k]) != string(v) {
				t.Fatalf("key %d: scanned %q, want %q", k, got[k], v)
			}
		}

		// Scanning half the slots returns exactly the matching subset.
		var half protocol.SlotSet
		for s := 0; s < cluster.Slots/2; s++ {
			half.Add(s)
		}
		wantHalf := 0
		for k := range expect {
			if cluster.SlotOf(k) < cluster.Slots/2 {
				wantHalf++
			}
		}
		halfEntries := c.scanAll(&half, 0)
		if len(halfEntries) != wantHalf {
			t.Fatalf("half scan saw %d entries, want %d", len(halfEntries), wantHalf)
		}
		for _, e := range halfEntries {
			if cluster.SlotOf(e.Key) >= cluster.Slots/2 {
				t.Fatalf("half scan leaked slot %d", cluster.SlotOf(e.Key))
			}
		}

		// Purge that half; the other half must stay readable.
		if removed := c.purgeAll(&half); removed != wantHalf {
			t.Fatalf("purge removed %d, want %d", removed, wantHalf)
		}
		for k := range expect {
			_, found := c.get(k)
			if want := cluster.SlotOf(k) >= cluster.Slots/2; found != want {
				t.Fatalf("after purge: Get(%d) found=%v, want %v", k, found, want)
			}
		}
		// Purging again removes nothing (idempotent).
		if removed := c.purgeAll(&half); removed != 0 {
			t.Fatalf("second purge removed %d", removed)
		}
	})
}

// TestWireScanInterleavedWithTraffic: SCAN responses interleave correctly
// with regular responses on the same connection (per-connection FIFO), and
// a scan under concurrent inserts neither hangs nor corrupts frames.
func TestWireScanInterleavedWithTraffic(t *testing.T) {
	eachBackend(t, 2, func(t *testing.T, srv *Server) {
		c, closeConn := dialT(t, srv.Addr())
		defer closeConn()
		var all protocol.SlotSet
		for s := 0; s < cluster.Slots; s++ {
			all.Add(s)
		}
		c.send(protocol.Request{Op: protocol.OpInsert, Key: 1, Value: []byte("one")})
		// LOOKUP, SCAN, DELETE back-to-back in one flush: the responses
		// must come back in exactly that order.
		c.send(protocol.Request{Op: protocol.OpLookup, Key: 1})
		c.send(protocol.Request{Op: protocol.OpScan, Slots: all, Count: 10})
		c.send(protocol.Request{Op: protocol.OpDelete, Key: 1})
		c.w.Flush()

		v, found, err := protocol.ReadLookupResponse(c.r, nil)
		if err != nil || !found || string(v) != "one" {
			t.Fatalf("lookup: %q %v %v", v, found, err)
		}
		_, entries, err := protocol.ReadScanResponse(c.r, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Key != 1 || string(entries[0].Value) != "one" {
			t.Fatalf("scan: %+v", entries)
		}
		if found, err := protocol.ReadDeleteResponse(c.r); err != nil || !found {
			t.Fatalf("delete: %v %v", found, err)
		}

		// Concurrent inserts from a second connection while this one scans
		// (bounded: the host may be a single CPU, and an unbounded flood
		// would starve the scanner).
		c2, closeConn2 := dialT(t, srv.Addr())
		defer closeConn2()
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for k := uint64(100); k < 2100; k++ {
				select {
				case <-stop:
					return
				default:
				}
				c2.send(protocol.Request{Op: protocol.OpInsert, Key: k, Value: []byte("x")})
				c2.w.Flush()
			}
		}()
		for pass := 0; pass < 3; pass++ {
			c.scanAll(&all, 128)
		}
		close(stop)
		<-done
	})
}

// TestWirePipelinedScansKeepTheirValues: SCANs of disjoint slot halves
// sent in one flush are served from one worker batch, each refilling the
// backend's scan slab. Every response must carry its own entries' values,
// so a slab refilled before the previous response was buffered shows up
// as another key's bytes.
func TestWirePipelinedScansKeepTheirValues(t *testing.T) {
	eachBackend(t, 1, func(t *testing.T, srv *Server) {
		c, closeConn := dialT(t, srv.Addr())
		defer closeConn()
		const n = 400
		value := func(k uint64) []byte {
			return []byte(fmt.Sprintf("%0*d", 40+int(k%200), k))
		}
		for k := uint64(0); k < n; k++ {
			c.send(protocol.Request{Op: protocol.OpInsert, Key: k, Value: value(k)})
		}
		if _, found := c.get(0); !found {
			t.Fatal("barrier get missed")
		}
		var lo, hi protocol.SlotSet
		for s := 0; s < cluster.Slots; s++ {
			if s < cluster.Slots/2 {
				lo.Add(s)
			} else {
				hi.Add(s)
			}
		}
		const rounds = 4
		for i := 0; i < rounds; i++ {
			c.send(protocol.Request{Op: protocol.OpScan, Slots: lo})
			c.send(protocol.Request{Op: protocol.OpScan, Slots: hi})
		}
		c.w.Flush()
		for i := 0; i < 2*rounds; i++ {
			next, entries, err := protocol.ReadScanResponse(c.r, nil)
			if err != nil {
				t.Fatal(err)
			}
			if next != protocol.ScanDone || len(entries) == 0 {
				t.Fatalf("response %d: %d entries, next %d", i, len(entries), next)
			}
			for _, e := range entries {
				if inLo := cluster.SlotOf(e.Key) < cluster.Slots/2; inLo != (i%2 == 0) {
					t.Fatalf("response %d: key %d from the wrong half", i, e.Key)
				}
				if !bytes.Equal(e.Value, value(e.Key)) {
					t.Fatalf("response %d: key %d = %q, want %q", i, e.Key, e.Value, value(e.Key))
				}
			}
		}
	})
}
