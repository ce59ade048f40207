package mctext_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"cphash/internal/core"
	"cphash/internal/kvserver"
	"cphash/internal/lockhash"
	"cphash/internal/mcclient"
	"cphash/internal/mctext"
)

// newHarness stands up a real server (CPHASH table + kvserver, two
// workers) with a memcached text listener and returns the listener's
// address.
func newHarness(t testing.TB) string {
	t.Helper()
	table := core.MustNew(core.Config{Partitions: 2, CapacityBytes: 4 << 20, MaxClients: 2, Seed: 1})
	t.Cleanup(table.Close)
	return serveText(t, kvserver.NewCPHashBackend(table))
}

func serveText(t testing.TB, newBackend func(int) (kvserver.Backend, error)) string {
	t.Helper()
	srv, err := kvserver.Serve(kvserver.Config{
		Addr: "127.0.0.1:0", TextAddr: "127.0.0.1:0", Workers: 2, NewBackend: newBackend,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.TextAddr()
}

func dialClient(t testing.TB, addr string) *mcclient.Client {
	t.Helper()
	c, err := mcclient.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestCommandRoundTrips(t *testing.T) {
	addr := newHarness(t)
	c := dialClient(t, addr)

	if err := c.Set("k", []byte("v0"), 7, 0); err != nil {
		t.Fatalf("set: %v", err)
	}
	it, err := c.Get("k")
	if err != nil || !bytes.Equal(it.Value, []byte("v0")) || it.Flags != 7 {
		t.Fatalf("get: %+v, %v", it, err)
	}

	// gets → cas → stale cas.
	it, err = c.Gets("k")
	if err != nil || it.CAS == 0 {
		t.Fatalf("gets: %+v, %v", it, err)
	}
	if err := c.Cas("k", []byte("v1"), 7, 0, it.CAS); err != nil {
		t.Fatalf("cas fresh: %v", err)
	}
	if err := c.Cas("k", []byte("v2"), 7, 0, it.CAS); !errors.Is(err, mcclient.ErrExists) {
		t.Fatalf("cas stale: %v, want ErrExists", err)
	}
	if err := c.Cas("nope", []byte("x"), 0, 0, 1); !errors.Is(err, mcclient.ErrCacheMiss) {
		t.Fatalf("cas absent: %v, want ErrCacheMiss", err)
	}

	// add / replace presence rules.
	if err := c.Add("k", []byte("x"), 0, 0); !errors.Is(err, mcclient.ErrNotStored) {
		t.Fatalf("add present: %v", err)
	}
	if err := c.Add("k2", []byte("two"), 0, 0); err != nil {
		t.Fatalf("add absent: %v", err)
	}
	if err := c.Replace("k3", []byte("x"), 0, 0); !errors.Is(err, mcclient.ErrNotStored) {
		t.Fatalf("replace absent: %v", err)
	}
	if err := c.Replace("k2", []byte("TWO"), 3, 0); err != nil {
		t.Fatalf("replace present: %v", err)
	}
	it, err = c.Get("k2")
	if err != nil || !bytes.Equal(it.Value, []byte("TWO")) || it.Flags != 3 {
		t.Fatalf("get after replace: %+v, %v", it, err)
	}

	// append / prepend keep the flags word and splice around it.
	if err := c.Append("k2", []byte("-tail")); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := c.Prepend("k2", []byte("head-")); err != nil {
		t.Fatalf("prepend: %v", err)
	}
	it, err = c.Get("k2")
	if err != nil || string(it.Value) != "head-TWO-tail" || it.Flags != 3 {
		t.Fatalf("get after concat: %+v, %v", it, err)
	}
	if err := c.Append("k3", []byte("x")); !errors.Is(err, mcclient.ErrNotStored) {
		t.Fatalf("append absent: %v", err)
	}

	// incr / decr.
	if err := c.Set("n", []byte("41"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Incr("n", 1); err != nil || n != 42 {
		t.Fatalf("incr: %d, %v", n, err)
	}
	if n, err := c.Decr("n", 100); err != nil || n != 0 {
		t.Fatalf("decr floor: %d, %v", n, err)
	}
	if _, err := c.Incr("k2", 1); err == nil ||
		!strings.Contains(err.Error(), "cannot increment or decrement non-numeric value") {
		t.Fatalf("incr non-numeric: %v", err)
	}

	// multi-key get in one round trip.
	m, err := c.GetMulti("k", "k2", "missing", "n")
	if err != nil || len(m) != 3 {
		t.Fatalf("get multi: %d items, %v", len(m), err)
	}

	// touch.
	if err := c.Touch("k", 3600); err != nil {
		t.Fatalf("touch: %v", err)
	}
	if err := c.Touch("missing", 3600); !errors.Is(err, mcclient.ErrCacheMiss) {
		t.Fatalf("touch absent: %v", err)
	}

	// delete.
	if err := c.Delete("k"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := c.Delete("k"); !errors.Is(err, mcclient.ErrCacheMiss) {
		t.Fatalf("re-delete: %v", err)
	}

	// version / stats.
	if v, err := c.Version(); err != nil || v == "" {
		t.Fatalf("version: %q, %v", v, err)
	}
	st, err := c.Stats()
	if err != nil || st["cmd_total"] == "" {
		t.Fatalf("stats: %v, %v", st, err)
	}
}

func TestTouchExpiresEntry(t *testing.T) {
	addr := newHarness(t)
	c := dialClient(t, addr)
	if err := c.Set("ttl", []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	// Negative exptime: already expired.
	if err := c.Touch("ttl", -1); err != nil {
		t.Fatalf("touch: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err := c.Get("ttl")
		if errors.Is(err, mcclient.ErrCacheMiss) {
			return
		}
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("entry did not expire after touch -1")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// rawConn drives the listener below mcclient, for protocol-abuse tests.
type rawConn struct {
	t testing.TB
	c net.Conn
	r *bufio.Reader
}

func dialRaw(t testing.TB, addr string) *rawConn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	return &rawConn{t: t, c: c, r: bufio.NewReader(c)}
}

func (rc *rawConn) write(s string) {
	rc.t.Helper()
	if _, err := rc.c.Write([]byte(s)); err != nil {
		rc.t.Fatalf("write %q: %v", s, err)
	}
}

func (rc *rawConn) expect(want string) {
	rc.t.Helper()
	line, err := rc.r.ReadString('\n')
	if err != nil {
		rc.t.Fatalf("reading (want %q): %v", want, err)
	}
	if got := strings.TrimRight(line, "\r\n"); got != want {
		rc.t.Fatalf("got %q, want %q", got, want)
	}
}

func TestErrorStringsAndRecovery(t *testing.T) {
	addr := newHarness(t)
	rc := dialRaw(t, addr)

	// Unknown command → ERROR; connection stays usable.
	rc.write("bogus\r\n")
	rc.expect("ERROR")

	// Bad token counts and malformed numbers → CLIENT_ERROR.
	rc.write("set onlykey\r\n")
	rc.expect("CLIENT_ERROR bad command line format")
	rc.write("set k notanumber 0 1\r\nX\r\n")
	rc.expect("CLIENT_ERROR bad command line format")
	// The orphaned data block then parses as a garbage command.
	rc.expect("ERROR")
	rc.write("incr k abc\r\n")
	rc.expect("CLIENT_ERROR bad command line format")

	// Oversize key.
	rc.write("get " + strings.Repeat("K", mctext.MaxKeyLen+1) + "\r\n")
	rc.expect("CLIENT_ERROR bad command line format")
	// Key with control bytes.
	rc.write("get a\x01b\r\n")
	rc.expect("CLIENT_ERROR bad command line format")

	// Bad data chunk (payload longer than declared, so the terminator
	// bytes are not CRLF) → answered, then usable.
	rc.write("set k 0 0 2\r\nABX\r\n")
	rc.expect("CLIENT_ERROR bad data chunk")

	// Binary garbage line.
	rc.write("\x00\xff\xfe\r\n")
	rc.expect("ERROR")

	// Still alive: a clean round trip works on the same connection.
	rc.write("set ok 0 0 2\r\nhi\r\n")
	rc.expect("STORED")
	rc.write("get ok\r\n")
	rc.expect("VALUE ok 0 2")
	rc.expect("hi")
	rc.expect("END")
}

func TestTornLinesReassemble(t *testing.T) {
	addr := newHarness(t)
	rc := dialRaw(t, addr)

	// One session delivered a byte at a time must behave identically.
	session := "set torn 9 0 5\r\nhello\r\ngets torn\r\n"
	for i := 0; i < len(session); i++ {
		rc.write(session[i : i+1])
	}
	rc.expect("STORED")
	line, err := rc.r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	var flags uint32
	var n int
	var cas uint64
	if _, err := fmt.Sscanf(line, "VALUE torn %d %d %d", &flags, &n, &cas); err != nil || flags != 9 || n != 5 || cas == 0 {
		t.Fatalf("VALUE line %q: flags %d n %d cas %d, %v", line, flags, n, cas, err)
	}
	rc.expect("hello")
	rc.expect("END")
}

func TestNoreplyInterleaving(t *testing.T) {
	addr := newHarness(t)
	rc := dialRaw(t, addr)

	// A noreply burst followed by replied commands: replies must line up
	// with only the replied commands.
	rc.write("set a 0 0 1 noreply\r\nA\r\n")
	rc.write("set b 0 0 1 noreply\r\nB\r\n")
	rc.write("set n 0 0 1 noreply\r\n5\r\n")
	rc.write("incr n 2 noreply\r\n")
	rc.write("delete b noreply\r\n")
	rc.write("get a b\r\n")
	rc.expect("VALUE a 0 1")
	rc.expect("A")
	rc.expect("END")
	rc.write("incr n 1\r\n")
	rc.expect("8")
}

func TestLineTooLongCloses(t *testing.T) {
	addr := newHarness(t)
	rc := dialRaw(t, addr)
	rc.write("get " + strings.Repeat("x", mctext.MaxLineLen+10) + "\r\n")
	rc.expect("CLIENT_ERROR line too long")
	if _, err := rc.r.ReadByte(); err == nil {
		t.Fatal("connection still open after oversized line")
	}
}

// burst is one pipelined write and the exact reply stream it must
// produce. cas uniques are not predictable, so the script learns one with
// a gets first and splices it into the burst.
type burst struct {
	req, want strings.Builder
}

func (b *burst) add(req, want string) {
	b.req.WriteString(req)
	b.want.WriteString(want)
}

// TestPipelinedBurstFIFO sends ≥200 mixed commands in a single write and
// requires the exact reply stream, in order: hits and misses of multi-key
// gets, set with and without noreply, incr, delete, version, an unknown
// verb, a bad data chunk, gets+cas — all through the worker's batch path,
// on both backends.
func TestPipelinedBurstFIFO(t *testing.T) {
	lh := lockhash.MustNew(lockhash.Config{Partitions: 2, CapacityBytes: 4 << 20})
	for name, addr := range map[string]string{
		"cphash":   newHarness(t),
		"lockhash": serveText(t, kvserver.NewLockHashBackend(lh)),
	} {
		t.Run(name, func(t *testing.T) {
			rc := dialRaw(t, addr)
			rc.write("set c 5 0 2\r\nv0\r\ngets c\r\n")
			rc.expect("STORED")
			line, err := rc.r.ReadString('\n')
			if err != nil {
				t.Fatal(err)
			}
			var cas uint64
			if _, err := fmt.Sscanf(line, "VALUE c 5 2 %d", &cas); err != nil || cas == 0 {
				t.Fatalf("gets line %q: %v", line, err)
			}
			rc.expect("v0")
			rc.expect("END")

			var b burst
			b.add(fmt.Sprintf("cas c 6 0 2 %d\r\nv1\r\n", cas), "STORED\r\n")
			b.add(fmt.Sprintf("cas c 6 0 2 %d\r\nv2\r\n", cas), "EXISTS\r\n")
			b.add("set n 0 0 1\r\n0\r\n", "STORED\r\n")
			n := 2 + 1
			for i := 0; n < 220; i++ {
				k := fmt.Sprintf("k%d", i)
				b.add(fmt.Sprintf("set %s %d 0 %d\r\n%s\r\n", k, i, len(k), k), "STORED\r\n")
				b.add(fmt.Sprintf("set q%d 0 0 1 noreply\r\nq\r\n", i), "")
				b.add(fmt.Sprintf("get miss%d %s nope q%d\r\n", i, k, i),
					fmt.Sprintf("VALUE %s %d %d\r\n%s\r\nVALUE q%d 0 1\r\nq\r\nEND\r\n", k, i, len(k), k, i))
				b.add("incr n 2\r\n", fmt.Sprintf("%d\r\n", 2*(i+1)))
				b.add(fmt.Sprintf("delete q%d\r\n", i), "DELETED\r\n")
				b.add(fmt.Sprintf("delete q%d\r\n", i), "NOT_FOUND\r\n")
				b.add("version\r\n", "VERSION cphash-mctext\r\n")
				b.add("frobnicate\r\n", "ERROR\r\n")
				b.add("set bad 0 0 2\r\nABX\r\n", "CLIENT_ERROR bad data chunk\r\n")
				b.add("gets c\r\n", "VALUE c 6 2 "+fmt.Sprint(cas+1)+"\r\nv1\r\nEND\r\n")
				n += 10
			}
			rc.write(b.req.String())
			got := make([]byte, b.want.Len())
			if _, err := io.ReadFull(rc.r, got); err != nil {
				t.Fatalf("reading %d reply bytes: %v", len(got), err)
			}
			if string(got) != b.want.String() {
				t.Fatalf("reply stream diverged:\n got %q\nwant %q", got, b.want.String())
			}
		})
	}
}

// TestValueLargerThanConnBuffer: a data block several times the
// connection's read and write buffers still round-trips.
func TestValueLargerThanConnBuffer(t *testing.T) {
	rc := dialRaw(t, newHarness(t))
	big := strings.Repeat("0123456789abcdef", 3*kvserver.DefaultBufferSize/16)
	rc.write(fmt.Sprintf("set big 1 0 %d\r\n%s\r\nget big\r\n", len(big), big))
	rc.expect("STORED")
	rc.expect(fmt.Sprintf("VALUE big 1 %d", len(big)))
	rc.expect(big)
	rc.expect("END")
}

// TestHalfCloseAndQuitFlushReplies: a client that pipelines commands and
// then half-closes (or quits) still receives every reply before the
// server closes the connection.
func TestHalfCloseAndQuitFlushReplies(t *testing.T) {
	addr := newHarness(t)
	for _, tail := range []string{"", "quit\r\nget never\r\n"} {
		rc := dialRaw(t, addr)
		rc.write("set h 0 0 1\r\nx\r\nget h\r\n" + tail)
		if tail == "" {
			rc.c.(*net.TCPConn).CloseWrite()
		}
		got, err := io.ReadAll(rc.r)
		if want := "STORED\r\nVALUE h 0 1\r\nx\r\nEND\r\n"; err != nil || string(got) != want {
			t.Fatalf("tail %q: got %q, %v; want %q then EOF", tail, got, err, want)
		}
	}
}
