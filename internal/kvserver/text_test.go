package kvserver

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"cphash/internal/chaos"
	"cphash/internal/lockhash"
	"cphash/internal/obs"
	"cphash/internal/persist"
	"cphash/internal/protocol"
)

// textConn is a raw memcached text connection to a server under test.
type textConn struct {
	t *testing.T
	c net.Conn
	r *bufio.Reader
}

func dialText(t *testing.T, addr string) *textConn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	return &textConn{t: t, c: c, r: bufio.NewReader(c)}
}

// do writes req in one piece and expects exactly want back.
func (tc *textConn) do(req, want string) {
	tc.t.Helper()
	if _, err := io.WriteString(tc.c, req); err != nil {
		tc.t.Fatal(err)
	}
	got := make([]byte, len(want))
	if _, err := io.ReadFull(tc.r, got); err != nil || string(got) != want {
		tc.t.Fatalf("request %q: got %q, %v; want %q", req, got, err, want)
	}
}

func startTextServer(t *testing.T, workers int, listen func(network, addr string) (net.Listener, error)) *Server {
	t.Helper()
	table := lockhash.MustNew(lockhash.Config{Partitions: 8, CapacityBytes: 1 << 20, Seed: 1})
	s, err := Serve(Config{
		Addr:       "127.0.0.1:0",
		TextAddr:   "127.0.0.1:0",
		Workers:    workers,
		NewBackend: NewLockHashBackend(table),
		Listen:     listen,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestGroupCommitSurvivesCrashText is TestGroupCommitSurvivesCrash over the
// text listener: under sync=always a "set" is answered STORED only after
// its batch executed and its WAL records were fsynced, so every key whose
// STORED the client has read survives an abrupt kill right after.
func TestGroupCommitSurvivesCrashText(t *testing.T) {
	dir := t.TempDir()
	srv, table, pipe, _ := persistServer(t, dir, persist.SyncAlways)
	const n = 300
	var burst, want strings.Builder
	for k := 0; k < n; k++ {
		fmt.Fprintf(&burst, "set key%d %d 0 12\r\ngroup-commit\r\n", k, k)
		want.WriteString("STORED\r\n")
	}
	dialText(t, srv.TextAddr()).do(burst.String(), want.String())

	pipe.Kill()
	srv.Close()
	table.Close()

	got := recoverKeys(t, dir)
	for k := 0; k < n; k++ {
		key := []byte(fmt.Sprintf("key%d", k))
		stored, ok := protocol.CutStringEntry([]byte(got[protocol.HashStringKey(key)]), key)
		if !ok || len(stored) < 4 || binary.LittleEndian.Uint32(stored) != uint32(k) || string(stored[4:]) != "group-commit" {
			t.Fatalf("STORED key %s lost by crash under sync=always: recovered %q (have %d keys)", key, stored, len(got))
		}
	}
}

// TestTextConnsSharePlacementAndCounters: text connections are spread by
// the same least-loaded balancer as native ones, and counted by the same
// connection, request and batch counters, next to the cphash_mctext_*
// series.
func TestTextConnsSharePlacementAndCounters(t *testing.T) {
	s := startTextServer(t, 2, nil)
	a, b := dialText(t, s.TextAddr()), dialText(t, s.TextAddr())
	a.do("set k 0 0 1\r\nv\r\n", "STORED\r\n") // a reply proves the connection is placed
	b.do("get k nope\r\n", "VALUE k 0 1\r\nv\r\nEND\r\n")
	for i, w := range s.workers {
		if n := w.conns.Load(); n != 1 {
			t.Fatalf("worker %d serves %d connections, want 1 of the 2 text connections each", i, n)
		}
	}
	// Canned replies hold a place in the reply order but are not requests:
	// neither line shows in the request, batch-size or latency series.
	b.do("bogus\r\n", "ERROR\r\n")
	b.do("version\r\n", "VERSION cphash-mctext\r\n")

	// A worker counts a batch after flushing its replies, so the last
	// one may trail the reply the client has just read.
	want := map[string]float64{
		"cphash_server_connections_total":  2,
		"cphash_server_active_connections": 2,
		"cphash_server_requests_total":     3, // set, two get keys
		"cphash_op_latency_ns_count":       3,
		"cphash_batch_size_sum":            3,
		"cphash_mctext_connections_total":  2,
		"cphash_mctext_active_connections": 2,
		"cphash_mctext_commands_total":     3, // rejected lines are counted apart
		"cphash_mctext_get_hits_total":     1,
		"cphash_mctext_get_misses_total":   1,
		"cphash_mctext_parse_errors_total": 1,
	}
	var sc *obs.Scrape
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		e := obs.NewExpo()
		s.Collect(e, "")
		var text bytes.Buffer
		if _, err := e.WriteTo(&text); err != nil {
			t.Fatal(err)
		}
		var err error
		if sc, err = obs.ParseText(&text); err != nil {
			t.Fatal(err)
		}
		if sc.Sum("cphash_batch_size_sum") == 3 || time.Now().After(deadline) {
			break
		}
	}
	for name, want := range want {
		if got := sc.Sum(name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if _, ok := sc.Get("cphash_mctext_upstream_errors_total"); ok {
		t.Error("cphash_mctext_upstream_errors_total is still exported")
	}

	a.c.Close()
	b.c.Close()
	waitZeroConns(t, s)
	// Nor do the readers' closing markers count (Close drains the workers,
	// so the counters are final).
	s.Close()
	// (The two-key get may have been gathered as one batch or two.)
	if st := s.Stats(); st.Requests != 3 || st.Batches > 3 {
		t.Errorf("after both connections closed: %d requests in %d batches, want 3 in at most 3", st.Requests, st.Batches)
	}
}

// TestCloseDropsTextConns: Close reaches text connections through the same
// connection set as native ones, and returns.
func TestCloseDropsTextConns(t *testing.T) {
	s := startTextServer(t, 1, nil)
	tc := dialText(t, s.TextAddr())
	tc.do("version\r\n", "VERSION cphash-mctext\r\n")
	s.Close()
	_, err := tc.r.ReadByte()
	var ne net.Error
	if err == nil || errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("text connection still open after Close (read: %v)", err)
	}
}

// TestCloseUnblocksStalledTextWriter: a text client that pipelines more
// replies than the socket can hold, never reads, and half-closes leaves
// its worker blocked in a write with the reader already gone. The
// connection must still be within Close's reach, or Close never returns.
func TestCloseUnblocksStalledTextWriter(t *testing.T) {
	s := startTextServer(t, 1, nil)
	tc := dialText(t, s.TextAddr())
	tc.c.(*net.TCPConn).SetReadBuffer(4 << 10)
	big := strings.Repeat("x", 64<<10)
	tc.do(fmt.Sprintf("set big 0 0 %d\r\n%s\r\n", len(big), big), "STORED\r\n")
	// Fewer requests than the connection has arenas, so the reader is not
	// held back by the stalled worker and does reach EOF.
	if _, err := io.WriteString(tc.c, strings.Repeat("get big\r\n", maxConnArenas-6)); err != nil {
		t.Fatal(err)
	}
	tc.c.(*net.TCPConn).CloseWrite()
	waitZeroConns(t, s) // the reader has seen EOF and queued its closing marker

	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hangs behind a worker blocked writing to a half-closed text connection")
	}
}

// TestChaosRulesReachTextConns: the text listener is opened through
// Config.Listen, so a fault rule addressed to it stalls text traffic like
// it would native traffic.
func TestChaosRulesReachTextConns(t *testing.T) {
	d := chaos.New(chaos.Config{Seed: 1})
	s := startTextServer(t, 1, d.Listen(""))
	tc := dialText(t, s.TextAddr())
	tc.do("version\r\n", "VERSION cphash-mctext\r\n")

	if err := d.SetRule(chaos.Rule{Name: "hang-text", Dst: s.TextAddr(), Hang: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(tc.c, "version\r\n"); err != nil {
		t.Fatal(err)
	}
	tc.c.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if _, err := tc.r.ReadByte(); err == nil {
		t.Fatal("text connection answered through a hang rule addressed to its listener")
	}
	d.RemoveRule("hang-text")
	tc.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	tc.do("", "VERSION cphash-mctext\r\n")
}
