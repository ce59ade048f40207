package kvserver

import (
	"fmt"
	"sync"
	"testing"

	"cphash/internal/core"
	"cphash/internal/loadgen"
	"cphash/internal/lockhash"
	"cphash/internal/protocol"
	"cphash/internal/workload"
)

// startCPServer spins up a CPSERVER on loopback.
func startCPServer(t testing.TB, workers int) *Server {
	t.Helper()
	table := core.MustNew(core.Config{
		Partitions:    2,
		CapacityBytes: 8 << 20,
		MaxClients:    workers,
		Seed:          7,
	})
	s, err := Serve(Config{
		Addr:       "127.0.0.1:0",
		Workers:    workers,
		NewBackend: NewCPHashBackend(table),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		table.Close()
	})
	return s
}

// startLockServer spins up a LOCKSERVER on loopback.
func startLockServer(t testing.TB, workers int) *Server {
	t.Helper()
	table := lockhash.MustNew(lockhash.Config{
		Partitions:    256,
		CapacityBytes: 8 << 20,
		Seed:          7,
	})
	s, err := Serve(Config{
		Addr:       "127.0.0.1:0",
		Workers:    workers,
		NewBackend: NewLockHashBackend(table),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// insertThenLookup drives the raw protocol over one connection.
func insertThenLookup(t *testing.T, addr string) {
	t.Helper()
	w, r, closer, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	// Insert (silent) then lookup.
	if err := protocol.WriteRequest(w, protocol.Request{Op: protocol.OpInsert, Key: 42, Value: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	if err := protocol.WriteRequest(w, protocol.Request{Op: protocol.OpLookup, Key: 42}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	v, found, err := protocol.ReadLookupResponse(r, nil)
	if err != nil || !found || string(v) != "hello" {
		t.Fatalf("lookup = %q %v %v", v, found, err)
	}

	// Miss for an absent key.
	protocol.WriteRequest(w, protocol.Request{Op: protocol.OpLookup, Key: 999})
	w.Flush()
	_, found, err = protocol.ReadLookupResponse(r, nil)
	if err != nil || found {
		t.Fatalf("absent key: found=%v err=%v", found, err)
	}
}

func TestCPServerBasic(t *testing.T) {
	s := startCPServer(t, 1)
	insertThenLookup(t, s.Addr())
	if st := s.Stats(); st.Requests != 3 || st.Connections != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLockServerBasic(t *testing.T) {
	s := startLockServer(t, 2)
	insertThenLookup(t, s.Addr())
}

func TestPipelinedBatch(t *testing.T) {
	s := startCPServer(t, 1)
	w, r, closer, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	const n = 500
	for i := uint64(0); i < n; i++ {
		if err := protocol.WriteRequest(w, protocol.Request{
			Op: protocol.OpInsert, Key: i, Value: []byte(fmt.Sprintf("v%04d", i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < n; i++ {
		protocol.WriteRequest(w, protocol.Request{Op: protocol.OpLookup, Key: i})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for i := uint64(0); i < n; i++ {
		var found bool
		buf, found, err = protocol.ReadLookupResponse(r, buf[:0])
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if !found || string(buf) != fmt.Sprintf("v%04d", i) {
			t.Fatalf("response %d = %q (found=%v)", i, buf, found)
		}
	}
}

// TestManyConnectionsBalance: many goroutines hammer one server through
// separate connections spread over four workers. Against the one-partition
// "memcache" backend every one of them contends on the same table lock,
// which must serialize them correctly.
func TestManyConnectionsBalance(t *testing.T) {
	eachBackend(t, 4, func(t *testing.T, s *Server) {
		var wg sync.WaitGroup
		const conns = 16
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				w, r, closer, err := Dial(s.Addr())
				if err != nil {
					t.Error(err)
					return
				}
				defer closer.Close()
				base := uint64(c) << 20
				for i := uint64(0); i < 200; i++ {
					protocol.WriteRequest(w, protocol.Request{
						Op: protocol.OpInsert, Key: base + i, Value: []byte{byte(i)},
					})
					protocol.WriteRequest(w, protocol.Request{Op: protocol.OpLookup, Key: base + i})
				}
				if err := w.Flush(); err != nil {
					t.Error(err)
					return
				}
				var buf []byte
				for i := uint64(0); i < 200; i++ {
					var found bool
					buf, found, err = protocol.ReadLookupResponse(r, buf[:0])
					if err != nil || !found || buf[0] != byte(i) {
						t.Errorf("conn %d resp %d: %q %v %v", c, i, buf, found, err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		if st := s.Stats(); st.Connections != conns {
			t.Fatalf("accepted %d connections, want %d", st.Connections, conns)
		}
	})
}

func TestLoadgenAgainstBothServers(t *testing.T) {
	for _, kind := range []string{"cpserver", "lockserver"} {
		t.Run(kind, func(t *testing.T) {
			var s *Server
			if kind == "cpserver" {
				s = startCPServer(t, 2)
			} else {
				s = startLockServer(t, 2)
			}
			// 1,024 keys and 10k ops: inserts cover most of the key space,
			// so the hit rate is solidly positive even from a cold cache.
			spec := workload.Default(8 << 10)
			res, err := loadgen.Run(loadgen.Config{
				Addrs:      []string{s.Addr()},
				Conns:      2,
				Pipeline:   32,
				Spec:       spec,
				OpsPerConn: 5000,
				Validate:   true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops != 10000 {
				t.Fatalf("ops = %d, want 10000", res.Ops)
			}
			if res.BadBytes != 0 {
				t.Fatalf("%d corrupt responses", res.BadBytes)
			}
			if res.HitRate() < 0.3 {
				t.Fatalf("hit rate %.2f suspiciously low", res.HitRate())
			}
			if res.Throughput() <= 0 {
				t.Fatal("zero throughput")
			}
		})
	}
}

func TestServeValidation(t *testing.T) {
	if _, err := Serve(Config{Addr: "127.0.0.1:0"}); err == nil {
		t.Fatal("Serve accepted nil backend factory")
	}
	if _, err := Serve(Config{Addr: "256.0.0.1:bad", NewBackend: func(int) (Backend, error) {
		return nil, nil
	}}); err == nil {
		t.Fatal("Serve accepted a bad address")
	}
}

func TestCloseIdempotentAndDropsConns(t *testing.T) {
	s := startCPServer(t, 1)
	w, r, closer, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	protocol.WriteRequest(w, protocol.Request{Op: protocol.OpLookup, Key: 1})
	w.Flush()
	if _, _, err := protocol.ReadLookupResponse(r, nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	// The connection is now closed; further reads must fail.
	protocol.WriteRequest(w, protocol.Request{Op: protocol.OpLookup, Key: 1})
	w.Flush()
	if _, _, err := protocol.ReadLookupResponse(r, nil); err == nil {
		t.Fatal("read succeeded on closed server")
	}
}

func TestGarbageInputDropsConnection(t *testing.T) {
	s := startCPServer(t, 1)
	w, r, closer, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	// A full frame's worth of bytes with an invalid opcode: the server
	// parses the op and key, rejects the op, and drops the connection.
	w.Write(append([]byte{0xFF}, make([]byte, 12)...))
	w.Flush()
	if _, _, err := protocol.ReadLookupResponse(r, nil); err == nil {
		t.Fatal("server kept the connection after a protocol error")
	}
}
