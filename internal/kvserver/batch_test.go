package kvserver

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"cphash/internal/protocol"
)

// frame encodes one request as it travels on the wire.
func frame(t *testing.T, req protocol.Request) []byte {
	t.Helper()
	var b bytes.Buffer
	w := bufio.NewWriter(&b)
	if err := protocol.WriteRequest(w, req); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	return b.Bytes()
}

// readReply reads exactly n reply bytes, failing if they take longer than
// the deadline.
func readReply(t *testing.T, c net.Conn, r *bufio.Reader, n int, what string) []byte {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := make([]byte, n)
	if _, err := io.ReadFull(r, got); err != nil {
		t.Fatalf("%s: %v (read %q)", what, err, got)
	}
	return got
}

// TestHalfFrameNative: a client sends a whole request plus the first part
// of the next one, and waits. The server must answer the whole request
// without waiting for the rest of the next, wherever the next is cut.
func TestHalfFrameNative(t *testing.T) {
	first := frame(t, protocol.Request{Op: protocol.OpLookup, Key: 7})
	next := frame(t, protocol.Request{Op: protocol.OpCasStr, StrKey: []byte("half-frame"), TTL: 1, Ver: 2, Value: []byte("split-value")})
	eachBackend(t, 1, func(t *testing.T, srv *Server) {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		r := bufio.NewReader(c)
		for cut := 1; cut < len(next); cut++ {
			if _, err := c.Write(append(slices.Clip(first), next[:cut]...)); err != nil {
				t.Fatal(err)
			}
			if got := readReply(t, c, r, 4, fmt.Sprintf("LOOKUP ahead of a CAS_STR cut after %d of %d bytes", cut, len(next))); !bytes.Equal(got, []byte{0, 0, 0, 0}) {
				t.Fatalf("cut %d: LOOKUP of a missing key answered %q", cut, got)
			}
			if _, err := c.Write(next[cut:]); err != nil {
				t.Fatal(err)
			}
			// status(1) | ver(8) | num(8): a CAS on a missing key.
			if got := readReply(t, c, r, 17, "the completed CAS_STR"); got[0] != protocol.RMWStatusNotFound {
				t.Fatalf("cut %d: CAS_STR on a missing key answered status %d", cut, got[0])
			}
		}
	})
}

// TestHalfFrameText is TestHalfFrameNative over the memcached text
// listener: the next command is cut inside its line and inside its data
// block.
func TestHalfFrameText(t *testing.T) {
	s := startTextServer(t, 1, nil)
	tc := dialText(t, s.TextAddr())
	const first = "get nothing\r\n"
	next := "set half-frame 0 0 11\r\nsplit-value\r\n"
	for cut := 1; cut < len(next); cut++ {
		if _, err := io.WriteString(tc.c, first+next[:cut]); err != nil {
			t.Fatal(err)
		}
		if got := readReply(t, tc.c, tc.r, len("END\r\n"), fmt.Sprintf("get ahead of a set cut after %d of %d bytes", cut, len(next))); string(got) != "END\r\n" {
			t.Fatalf("cut %d: get of a missing key answered %q", cut, got)
		}
		if _, err := io.WriteString(tc.c, next[cut:]); err != nil {
			t.Fatal(err)
		}
		if got := readReply(t, tc.c, tc.r, len("STORED\r\n"), "the completed set"); string(got) != "STORED\r\n" {
			t.Fatalf("cut %d: set answered %q", cut, got)
		}
	}
}

// echoBackend answers every LOOKUP with the key itself, as 8 bytes, and
// records the keys of each batch it is handed. With hold armed, the next
// batch announces itself on entered and waits for hold to close.
type echoBackend struct {
	mu      sync.Mutex
	batches [][]uint64
	hold    chan struct{}
	entered chan struct{}
}

func (b *echoBackend) ProcessBatch(reqs []protocol.Request, results []Result, buf []byte) []byte {
	keys := make([]uint64, len(reqs))
	for i := range reqs {
		keys[i] = reqs[i].Key
	}
	b.mu.Lock()
	b.batches = append(b.batches, keys)
	hold, entered := b.hold, b.entered
	b.hold = nil
	b.mu.Unlock()
	if hold != nil {
		close(entered)
		<-hold
	}
	for i := range reqs {
		if reqs[i].Op == protocol.OpLookup {
			start := len(buf)
			buf = binary.LittleEndian.AppendUint64(buf, reqs[i].Key)
			results[i] = Result{Start: int32(start), End: int32(len(buf)), Found: true}
		}
	}
	return buf
}

func (b *echoBackend) Close() {}

// serveEcho starts a one-worker server over an echoBackend.
func serveEcho(t *testing.T, maxBatch int) (*Server, *echoBackend) {
	t.Helper()
	b := &echoBackend{}
	srv, err := Serve(Config{
		Addr:       "127.0.0.1:0",
		Workers:    1,
		MaxBatch:   maxBatch,
		NewBackend: func(int) (Backend, error) { return b, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, b
}

// readEchoes reads n LOOKUP replies and checks they echo keys, in order.
func readEchoes(t *testing.T, r *bufio.Reader, keys ...uint64) {
	t.Helper()
	for _, k := range keys {
		v, found, err := protocol.ReadLookupResponse(r, nil)
		if err != nil || !found || len(v) != 8 || binary.LittleEndian.Uint64(v) != k {
			t.Fatalf("reply for key %d: %x (found %v, err %v)", k, v, found, err)
		}
	}
}

// TestCombiningMergesQueuedBatches: while one connection's batch holds
// the worker, the batches other connections queue behind it run as ONE
// backend batch, and each connection gets its own replies, in its own
// order.
func TestCombiningMergesQueuedBatches(t *testing.T) {
	srv, b := serveEcho(t, 0)
	hold, entered := make(chan struct{}), make(chan struct{})
	b.mu.Lock()
	b.hold, b.entered = hold, entered
	b.mu.Unlock()
	// Released on every path, so a failure below does not leave Close
	// waiting on the held batch.
	release := sync.OnceFunc(func() { close(hold) })
	defer release()

	holder, closeHolder := dialT(t, srv.Addr())
	defer closeHolder()
	holder.send(protocol.Request{Op: protocol.OpLookup, Key: 1})
	holder.w.Flush()
	<-entered

	const conns = 3
	clients := make([]*wireClient, conns)
	for i := range clients {
		c, closeConn := dialT(t, srv.Addr())
		defer closeConn()
		clients[i] = c
		// Two requests in one write: the order within the connection is
		// part of what the merged batch must keep.
		c.send(protocol.Request{Op: protocol.OpLookup, Key: uint64(100*i + 10)})
		c.send(protocol.Request{Op: protocol.OpLookup, Key: uint64(100*i + 11)})
		c.w.Flush()
	}
	w := srv.workers[0]
	queued := func() int {
		w.mu.Lock()
		defer w.mu.Unlock()
		n := 0
		for _, cs := range w.pending {
			n += len(cs.reqs)
		}
		return n
	}
	for deadline := time.Now().Add(5 * time.Second); queued() < 2*conns; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests queued behind the held batch", queued(), 2*conns)
		}
	}
	release()

	readEchoes(t, holder.r, 1)
	for i, c := range clients {
		readEchoes(t, c.r, uint64(100*i+10), uint64(100*i+11))
	}
	b.mu.Lock()
	batches := b.batches
	b.mu.Unlock()
	if len(batches) != 2 {
		t.Fatalf("backend saw batches %v, want the held one and one merged batch", batches)
	}
	got := slices.Clone(batches[1])
	slices.Sort(got)
	if want := []uint64{10, 11, 110, 111, 210, 211}; !slices.Equal(got, want) {
		t.Fatalf("merged batch holds keys %v, want %v", batches[1], want)
	}
	for i := range conns {
		at := slices.Index(batches[1], uint64(100*i+10))
		if batches[1][at+1] != uint64(100*i+11) {
			t.Fatalf("merged batch %v splits or reorders connection %d's requests", batches[1], i)
		}
	}
}

// TestCombiningKeepsPerConnFIFO: connections sharing one worker pipeline
// far more requests than a batch holds, so their batches end at arbitrary
// points and rounds merge arbitrary pieces of them; every connection
// still reads its replies in the order it sent its requests.
func TestCombiningKeepsPerConnFIFO(t *testing.T) {
	srv, _ := serveEcho(t, 7)
	const (
		conns = 4
		reqs  = 500
	)
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for i := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, r, c, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			go func() {
				for k := range reqs {
					protocol.WriteRequest(w, protocol.Request{Op: protocol.OpLookup, Key: uint64(i<<20 | k)})
					if k%13 == 0 {
						w.Flush()
					}
				}
				w.Flush()
			}()
			for k := range reqs {
				v, found, err := protocol.ReadLookupResponse(r, nil)
				if want := uint64(i<<20 | k); err != nil || !found || binary.LittleEndian.Uint64(v) != want {
					errs <- fmt.Errorf("connection %d, reply %d: %x (found %v, err %v), want key %d", i, k, v, found, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
