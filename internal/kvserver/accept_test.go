package kvserver

import (
	"net"
	"testing"
	"time"

	"cphash/internal/lockhash"
	"cphash/internal/protocol"
)

func startAcceptServer(t *testing.T, workers int) *Server {
	t.Helper()
	table := lockhash.MustNew(lockhash.Config{Partitions: 8, CapacityBytes: 1 << 20, Seed: 1})
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

// activeConns sums the per-worker active-connection counters the
// least-loaded balancer reads.
func activeConns(s *Server) int64 {
	var n int64
	for _, w := range s.workers {
		n += w.conns.Load()
	}
	return n
}

func waitZeroConns(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if activeConns(s) == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("worker connection counts stuck at %d (want 0)", activeConns(s))
}

// Regression test for acceptor bookkeeping: connections that die before,
// during, or right after their first request must decrement their worker's
// active-connection count exactly once — the count returns to zero and
// never goes negative (a double decrement would skew the least-loaded
// balancer forever).
func TestAcceptorDecrementsDyingConnsExactlyOnce(t *testing.T) {
	s := startAcceptServer(t, 2)

	const perKind = 20
	for i := 0; i < perKind; i++ {
		// Dies instantly: accepted, then closed before any byte.
		c1, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c1.Close()

		// Dies on a protocol error: unknown opcode drops the connection
		// server-side.
		c2, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		_, _ = c2.Write([]byte{0xFF})
		c2.Close()

		// Dies mid-frame: opcode plus half a key, then gone.
		c3, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		_, _ = c3.Write([]byte{protocol.OpLookup, 0x01, 0x02, 0x03})
		c3.Close()
	}

	waitZeroConns(t, s)
	for i, w := range s.workers {
		if n := w.conns.Load(); n < 0 {
			t.Fatalf("worker %d count went negative (%d): double decrement", i, n)
		}
	}
	if st := s.Stats(); st.Active != 0 {
		t.Fatalf("Stats().Active = %d after all conns died, want 0", st.Active)
	}
}

// A healthy connection is counted while open and uncounted after close;
// Stats.Active tracks it.
func TestActiveConnAccounting(t *testing.T) {
	s := startAcceptServer(t, 2)

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for activeConns(s) != 1 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := s.Stats().Active; got != 1 {
		t.Fatalf("Stats().Active = %d with one open conn, want 1", got)
	}
	conn.Close()
	waitZeroConns(t, s)
}

// Closing the server while connections are racing in must still leave all
// worker counts at zero: the close-race path in the acceptor must not
// count a connection it refused.
func TestCloseRaceLeavesNoPhantomConns(t *testing.T) {
	s := startAcceptServer(t, 2)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			c, err := net.Dial("tcp", s.Addr())
			if err != nil {
				return // listener closed
			}
			c.Close()
		}
	}()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	close(stop)
	<-done

	// After Close returns, every serveConn has exited; counts must balance.
	if n := activeConns(s); n != 0 {
		t.Fatalf("%d phantom connections left on workers after Close", n)
	}
}
