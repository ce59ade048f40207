package mctext

import (
	"bufio"
	"errors"
	"io"
	"strings"
	"testing"

	"cphash/internal/protocol"
)

// errWouldBlock stands for a socket with nothing more to read yet.
var errWouldBlock = errors.New("would block")

// cutReader yields its bytes once, then reports errWouldBlock.
type cutReader struct{ b []byte }

func (r *cutReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, errWouldBlock
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// readyStream covers every shape Ready must judge: single- and multi-key
// gets, storage commands with data blocks, noreply, blank lines, LF-only
// endings, a parse error, a bad data chunk and keyless verbs.
const readyStream = "get a\r\n" +
	"set k 1 0 5\r\nhello\r\n" +
	"\r\n\n" +
	"gets a b c\r\n" +
	"cas k 0 0 3 42 noreply\r\nabc\r\n" +
	"append k 0 0 2\nxy\r\n" +
	"bogus command\r\n" +
	"incr n 5\r\n" +
	"set k 0 0 2\r\nxyz\r\n" +
	"delete k\r\n" +
	"touch k 10\r\n" +
	"version\r\n" +
	"stats\r\n" +
	"get z\r\n"

// TestReadyPredictsBlocking: with the stream cut anywhere, Ready is true
// exactly when Next can return without reading past the cut, and the
// requests decoded up to the cut match those of the uncut stream.
func TestReadyPredictsBlocking(t *testing.T) {
	var m Metrics
	var want []protocol.Request
	{
		d := NewDecoder(&m, []*Metrics{&m})
		br := bufio.NewReader(strings.NewReader(readyStream))
		for {
			var req protocol.Request
			if _, _, err := d.Next(br, &req, nil); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			want = append(want, req)
		}
	}
	for cut := 0; cut <= len(readyStream); cut++ {
		d := NewDecoder(&m, []*Metrics{&m})
		br := bufio.NewReader(&cutReader{b: []byte(readyStream[:cut])})
		br.Peek(1)
		got := 0
		for d.Ready(br) {
			var req protocol.Request
			if _, _, err := d.Next(br, &req, nil); err != nil {
				t.Fatalf("cut %d: Ready, then Next failed: %v", cut, err)
			}
			if w := want[got]; req.Op != w.Op || string(req.StrKey) != string(w.StrKey) || string(req.Value) != string(w.Value) && req.Op != OpNone {
				t.Fatalf("cut %d, request %d: got %+v, want %+v", cut, got, req, w)
			}
			got++
		}
		var req protocol.Request
		if _, _, err := d.Next(br, &req, nil); !errors.Is(err, errWouldBlock) && !(cut == len(readyStream) && got == len(want)) {
			t.Fatalf("cut %d: Ready was false after %d requests, but Next returned %+v, %v without reading", cut, got, req, err)
		}
	}
}

// TestReadyLongLines: a line Next rejects as too long is ready at once,
// with or without its end in the buffer.
func TestReadyLongLines(t *testing.T) {
	var m Metrics
	for _, in := range []string{
		"get " + strings.Repeat("k", MaxLineLen) + "\r\n",
		strings.Repeat("x", 4096), // fills the buffer without a line end
	} {
		d := NewDecoder(&m, nil)
		br := bufio.NewReaderSize(&cutReader{b: []byte(in)}, 4096)
		br.Peek(1)
		if !d.Ready(br) {
			t.Fatalf("%d-byte line not ready", len(in))
		}
		var req protocol.Request
		if _, _, err := d.Next(br, &req, nil); err != nil || string(req.Value) != string(replyTooLong) {
			t.Fatalf("%d-byte line: %q, %v", len(in), req.Value, err)
		}
	}
}

// TestReady_NoAllocs: the server calls Ready on every pipelined command,
// so it must allocate nothing — and Next, given Ready's parse, nothing
// either.
func TestReady_NoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const pipeline = "get a\r\nset k 1 0 5\r\nhello\r\nget a b\r\n"
	var m Metrics
	d := NewDecoder(&m, nil)
	r := strings.NewReader(pipeline)
	br := bufio.NewReader(r)
	arena := make([]byte, 0, 256)
	var req protocol.Request
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(pipeline)
		br.Reset(r)
		br.Peek(1)
		arena = arena[:0]
		for d.Ready(br) {
			var err error
			if _, arena, err = d.Next(br, &req, arena); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 0 {
		t.Errorf("Ready and Next allocate %.1f allocs/run, want 0", allocs)
	}
}
