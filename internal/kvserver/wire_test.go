package kvserver

import (
	"bufio"
	"bytes"
	"fmt"
	"testing"
	"time"

	"cphash/internal/core"
	"cphash/internal/lockhash"
	"cphash/internal/protocol"
)

// eachBackend runs fn against a fresh server for every backend design:
// CPHASH, LOCKHASH, and the memcached-style baseline — LOCKHASH with one
// partition, i.e. a single lock around the whole table.
func eachBackend(t *testing.T, workers int, fn func(t *testing.T, srv *Server)) {
	t.Helper()
	t.Run("cphash", func(t *testing.T) {
		table := core.MustNew(core.Config{
			Partitions:    2,
			CapacityBytes: 4 << 20,
			MaxClients:    workers,
		})
		defer table.Close()
		srv, err := Serve(Config{Addr: "127.0.0.1:0", Workers: workers, NewBackend: NewCPHashBackend(table)})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		fn(t, srv)
	})
	for name, partitions := range map[string]int{"lockhash": 16, "memcache": 1} {
		t.Run(name, func(t *testing.T) {
			table := lockhash.MustNew(lockhash.Config{Partitions: partitions, CapacityBytes: 4 << 20})
			srv, err := Serve(Config{Addr: "127.0.0.1:0", Workers: workers, NewBackend: NewLockHashBackend(table)})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			fn(t, srv)
		})
	}
}

// wireClient bundles the codec halves of one test connection.
type wireClient struct {
	w *bufio.Writer
	r *bufio.Reader
	t *testing.T
}

func dialT(t *testing.T, addr string) (*wireClient, func()) {
	t.Helper()
	w, r, c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	return &wireClient{w: w, r: r, t: t}, func() { c.Close() }
}

func (c *wireClient) send(req protocol.Request) {
	c.t.Helper()
	if err := protocol.WriteRequest(c.w, req); err != nil {
		c.t.Fatal(err)
	}
}

func (c *wireClient) getStr(key string) ([]byte, bool) {
	c.t.Helper()
	c.send(protocol.Request{Op: protocol.OpGetStr, StrKey: []byte(key)})
	c.w.Flush()
	v, found, err := protocol.ReadLookupResponse(c.r, nil)
	if err != nil {
		c.t.Fatal(err)
	}
	return v, found
}

func (c *wireClient) get(key uint64) ([]byte, bool) {
	c.t.Helper()
	c.send(protocol.Request{Op: protocol.OpLookup, Key: key})
	c.w.Flush()
	v, found, err := protocol.ReadLookupResponse(c.r, nil)
	if err != nil {
		c.t.Fatal(err)
	}
	return v, found
}

func (c *wireClient) del(req protocol.Request) bool {
	c.t.Helper()
	c.send(req)
	c.w.Flush()
	found, err := protocol.ReadDeleteResponse(c.r)
	if err != nil {
		c.t.Fatal(err)
	}
	return found
}

// TestWireStringTTLDeleteAcceptance is the PR's acceptance scenario over a
// live TCP connection: SET a string key with a TTL, GET it back, see it
// vanish after expiry, and DELETE another key — against both backends.
func TestWireStringTTLDeleteAcceptance(t *testing.T) {
	eachBackend(t, 2, func(t *testing.T, srv *Server) {
		c, closeConn := dialT(t, srv.Addr())
		defer closeConn()

		// SET_STR with a short TTL, plus a durable key to DELETE later.
		c.send(protocol.Request{Op: protocol.OpSetStr, StrKey: []byte("session:alice"),
			TTL: 150, Value: []byte("logged-in")})
		c.send(protocol.Request{Op: protocol.OpSetStr, StrKey: []byte("page:/home"),
			Value: []byte("<html>home</html>")})

		// GET both back before expiry (the SETs are silent; FIFO ordering
		// on one connection makes the GETs observe them).
		if v, ok := c.getStr("session:alice"); !ok || string(v) != "logged-in" {
			t.Fatalf("GET_STR session:alice = %q, %v; want logged-in", v, ok)
		}
		if v, ok := c.getStr("page:/home"); !ok || string(v) != "<html>home</html>" {
			t.Fatalf("GET_STR page:/home = %q, %v", v, ok)
		}

		// After the TTL elapses the session is gone; the page persists.
		deadline := time.Now().Add(5 * time.Second)
		for {
			if _, ok := c.getStr("session:alice"); !ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("session:alice still visible long after its 150ms TTL")
			}
			time.Sleep(20 * time.Millisecond)
		}
		if _, ok := c.getStr("page:/home"); !ok {
			t.Fatal("page:/home (no TTL) vanished")
		}

		// DELETE the page; a second delete reports not-found; GET misses.
		if !c.del(protocol.Request{Op: protocol.OpDelStr, StrKey: []byte("page:/home")}) {
			t.Fatal("DEL_STR page:/home reported not found")
		}
		if c.del(protocol.Request{Op: protocol.OpDelStr, StrKey: []byte("page:/home")}) {
			t.Fatal("second DEL_STR reported found")
		}
		if _, ok := c.getStr("page:/home"); ok {
			t.Fatal("page:/home visible after DELETE")
		}
	})
}

// TestWireNumericTTLDelete covers the fixed-key v2 ops: INSERT_TTL expiry
// and DELETE responses, pipelined in one batch write.
func TestWireNumericTTLDelete(t *testing.T) {
	eachBackend(t, 1, func(t *testing.T, srv *Server) {
		c, closeConn := dialT(t, srv.Addr())
		defer closeConn()

		// One pipelined batch: insert 3 keys (one with TTL), read them,
		// delete one, read it again.
		c.send(protocol.Request{Op: protocol.OpInsertTTL, Key: 1, TTL: 150, Value: []byte("ephemeral")})
		c.send(protocol.Request{Op: protocol.OpInsert, Key: 2, Value: []byte("durable")})
		c.send(protocol.Request{Op: protocol.OpInsertTTL, Key: 3, TTL: 0, Value: []byte("ttl-zero")})
		c.send(protocol.Request{Op: protocol.OpLookup, Key: 1})
		c.send(protocol.Request{Op: protocol.OpLookup, Key: 2})
		c.send(protocol.Request{Op: protocol.OpDelete, Key: 2})
		c.send(protocol.Request{Op: protocol.OpLookup, Key: 2})
		c.send(protocol.Request{Op: protocol.OpDelete, Key: 99})
		c.w.Flush()

		expect := func(wantV string, wantOK bool) {
			t.Helper()
			v, ok, err := protocol.ReadLookupResponse(c.r, nil)
			if err != nil {
				t.Fatal(err)
			}
			if ok != wantOK || string(v) != wantV {
				t.Fatalf("lookup = %q, %v; want %q, %v", v, ok, wantV, wantOK)
			}
		}
		expect("ephemeral", true)
		expect("durable", true)
		if found, err := protocol.ReadDeleteResponse(c.r); err != nil || !found {
			t.Fatalf("DELETE 2 = %v, %v; want found", found, err)
		}
		expect("", false) // deleted within the same batch
		if found, err := protocol.ReadDeleteResponse(c.r); err != nil || found {
			t.Fatalf("DELETE 99 = %v, %v; want not found", found, err)
		}

		// TTL=0 means never expires; TTL=150ms means gone soon.
		deadline := time.Now().Add(5 * time.Second)
		for {
			if _, ok := c.get(1); !ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("key 1 still visible long after its 150ms TTL")
			}
			time.Sleep(20 * time.Millisecond)
		}
		if _, ok := c.get(3); !ok {
			t.Fatal("key 3 (TTL 0 = never) vanished")
		}
	})
}

// TestWireStringCollisionSafety: two different string keys coexist, and a
// GET_STR of a never-set key misses even though the table is busy.
func TestWireStringCollisionSafety(t *testing.T) {
	eachBackend(t, 1, func(t *testing.T, srv *Server) {
		c, closeConn := dialT(t, srv.Addr())
		defer closeConn()
		for i := 0; i < 64; i++ {
			c.send(protocol.Request{Op: protocol.OpSetStr,
				StrKey: fmt.Appendf(nil, "key-%d", i), Value: fmt.Appendf(nil, "val-%d", i)})
		}
		for i := 0; i < 64; i++ {
			if v, ok := c.getStr(fmt.Sprintf("key-%d", i)); !ok || string(v) != fmt.Sprintf("val-%d", i) {
				t.Fatalf("key-%d = %q, %v", i, v, ok)
			}
		}
		if _, ok := c.getStr("never-set"); ok {
			t.Fatal("GET_STR of a never-set key hit")
		}
	})
}

// TestWireSetThenGetSameBatch: SET k v; GET k written in one flush (so,
// normally, one batch) returns the new value on every backend, for a value
// CPHASH stores with one message (16 B: no settle barrier) and for one it
// stores in two phases (1 KiB: the barrier still holds the GET back).
func TestWireSetThenGetSameBatch(t *testing.T) {
	eachBackend(t, 1, func(t *testing.T, srv *Server) {
		c, closeConn := dialT(t, srv.Addr())
		defer closeConn()
		for round := 0; round < 20; round++ {
			want := [][]byte{
				bytes.Repeat([]byte{byte('a' + round)}, 16),
				bytes.Repeat([]byte{byte('A' + round)}, 1024),
			}
			for i, v := range want {
				c.send(protocol.Request{Op: protocol.OpInsert, Key: uint64(i), Value: v})
				c.send(protocol.Request{Op: protocol.OpLookup, Key: uint64(i)})
				c.send(protocol.Request{Op: protocol.OpSetStr, StrKey: fmt.Appendf(nil, "s%d", i), Value: v})
				c.send(protocol.Request{Op: protocol.OpGetStr, StrKey: fmt.Appendf(nil, "s%d", i)})
			}
			c.w.Flush()
			for i, v := range want {
				for _, kind := range []string{"GET", "GET_STR"} {
					got, found, err := protocol.ReadLookupResponse(c.r, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !found || !bytes.Equal(got, v) {
						t.Fatalf("round %d: %s after SET of %d bytes: found %v, %d bytes", round, kind, len(want[i]), found, len(got))
					}
				}
			}
		}
	})
}

// TestWireStringCollisionMisses plants, under the hash of one string key,
// the stored entry of another — what a 60-bit hash collision leaves behind
// — and checks that GET_STR still compares the embedded key and misses,
// whether the entry reaches the CPHASH client inline (≤ 64 B) or as a
// pinned element.
func TestWireStringCollisionMisses(t *testing.T) {
	eachBackend(t, 1, func(t *testing.T, srv *Server) {
		c, closeConn := dialT(t, srv.Addr())
		defer closeConn()
		for _, size := range []int{8, 200} {
			victim := fmt.Appendf(nil, "victim-%d", size)
			slot := protocol.HashStringKey(victim)
			c.send(protocol.Request{Op: protocol.OpInsert, Key: slot,
				Value: protocol.AppendStringEntry(nil, []byte("squatter"), make([]byte, size))})
			if v, ok := c.getStr(string(victim)); ok {
				t.Fatalf("%d B: GET_STR returned a colliding key's %d bytes", size, len(v))
			}
			if raw, ok := c.get(slot); !ok || len(raw) != 4+len("squatter")+size {
				t.Fatalf("%d B: planted entry not stored (%d bytes, %v)", size, len(raw), ok)
			}
			// The rightful owner overwrites the slot and reads its own value.
			c.send(protocol.Request{Op: protocol.OpSetStr, StrKey: victim, Value: make([]byte, size)})
			if v, ok := c.getStr(string(victim)); !ok || len(v) != size {
				t.Fatalf("%d B: GET_STR after SET_STR = %d bytes, %v", size, len(v), ok)
			}
		}
	})
}

// TestWireRMWGets runs the version-4 ops — GETS and every RMW family —
// on one connection, numeric and string keys alike: all three designs
// execute them through partition.Store.RMW and must answer identically.
func TestWireRMWGets(t *testing.T) {
	eachBackend(t, 2, func(t *testing.T, srv *Server) {
		c, closeConn := dialT(t, srv.Addr())
		defer closeConn()
		rmw := func(req protocol.Request, wantStatus uint8) (ver, num uint64) {
			t.Helper()
			c.send(req)
			c.w.Flush()
			status, ver, num, err := protocol.ReadRMWResponse(c.r)
			if err != nil {
				t.Fatal(err)
			}
			if status != wantStatus {
				t.Fatalf("op %d: status %d, want %d", req.Op, status, wantStatus)
			}
			return ver, num
		}
		gets := func(req protocol.Request) (string, uint64, bool) {
			t.Helper()
			c.send(req)
			c.w.Flush()
			v, ver, found, err := protocol.ReadGetsResponseInto(c.r, nil)
			if err != nil {
				t.Fatal(err)
			}
			return string(v), ver, found
		}

		// Numeric key: add once, cas against the right and a stale version.
		v1, _ := rmw(protocol.Request{Op: protocol.OpAdd, Key: 5, Value: []byte("10")}, protocol.RMWStatusStored)
		rmw(protocol.Request{Op: protocol.OpAdd, Key: 5, Value: []byte("x")}, protocol.RMWStatusNotStored)
		if v, ver, ok := gets(protocol.Request{Op: protocol.OpGets, Key: 5}); !ok || v != "10" || ver != v1 {
			t.Fatalf("GETS 5 = %q v%d %v, want 10 v%d", v, ver, ok, v1)
		}
		v2, _ := rmw(protocol.Request{Op: protocol.OpCas, Key: 5, Ver: v1, Value: []byte("20")}, protocol.RMWStatusStored)
		if cur, _ := rmw(protocol.Request{Op: protocol.OpCas, Key: 5, Ver: v1, Value: []byte("30")}, protocol.RMWStatusExists); cur != v2 {
			t.Fatalf("stale CAS reported v%d, want the current v%d", cur, v2)
		}
		if _, n := rmw(protocol.Request{Op: protocol.OpIncr, Key: 5, Delta: 22}, protocol.RMWStatusStored); n != 42 {
			t.Fatalf("INCR = %d, want 42", n)
		}
		if _, n := rmw(protocol.Request{Op: protocol.OpDecr, Key: 5, Delta: 100}, protocol.RMWStatusStored); n != 0 {
			t.Fatalf("DECR below zero = %d, want 0", n)
		}
		rmw(protocol.Request{Op: protocol.OpIncr, Key: 6, Delta: 1}, protocol.RMWStatusNotFound)
		rmw(protocol.Request{Op: protocol.OpReplace, Key: 6, Value: []byte("x")}, protocol.RMWStatusNotStored)

		// String key: append/prepend keep one entry, incr rejects it, touch
		// keeps the version.
		key := []byte("greeting")
		rmw(protocol.Request{Op: protocol.OpAddStr, StrKey: key, Value: []byte("b")}, protocol.RMWStatusStored)
		rmw(protocol.Request{Op: protocol.OpAppendStr, StrKey: key, Value: []byte("c")}, protocol.RMWStatusStored)
		v3, _ := rmw(protocol.Request{Op: protocol.OpPrependStr, StrKey: key, Value: []byte("a")}, protocol.RMWStatusStored)
		rmw(protocol.Request{Op: protocol.OpIncrStr, StrKey: key, Delta: 1}, protocol.RMWStatusBadValue)
		if ver, _ := rmw(protocol.Request{Op: protocol.OpTouchStr, StrKey: key, TTL: 60000}, protocol.RMWStatusStored); ver != v3 {
			t.Fatalf("TOUCH moved the version v%d -> v%d", v3, ver)
		}
		if v, ver, ok := gets(protocol.Request{Op: protocol.OpGetsStr, StrKey: key}); !ok || v != "abc" || ver != v3 {
			t.Fatalf("GETS_STR = %q v%d %v, want abc v%d", v, ver, ok, v3)
		}
		if _, _, ok := gets(protocol.Request{Op: protocol.OpGetsStr, StrKey: []byte("absent")}); ok {
			t.Fatal("GETS_STR of an absent key hit")
		}
	})
}
