package protocol

import (
	"bufio"
	"bytes"
	"io"
	"testing"
	"testing/quick"
)

// decodeFresh decodes one request into an arena of its own, so the result
// stays valid across later reads.
func decodeFresh(r *bufio.Reader) (Request, error) {
	var req Request
	_, err := DecodeRequestInto(r, &req, nil)
	return req, err
}

func roundTripRequest(t *testing.T, req Request) Request {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteRequest(w, req); err != nil {
		t.Fatalf("write: %v", err)
	}
	w.Flush()
	got, err := decodeFresh(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return got
}

func TestLookupRoundTrip(t *testing.T) {
	got := roundTripRequest(t, Request{Op: OpLookup, Key: 0xDEADBEEF})
	if got.Op != OpLookup || got.Key != 0xDEADBEEF || got.Value != nil {
		t.Fatalf("got %+v", got)
	}
}

func TestInsertRoundTrip(t *testing.T) {
	got := roundTripRequest(t, Request{Op: OpInsert, Key: 7, Value: []byte("payload")})
	if got.Op != OpInsert || got.Key != 7 || string(got.Value) != "payload" {
		t.Fatalf("got %+v", got)
	}
}

func TestInsertEmptyValue(t *testing.T) {
	got := roundTripRequest(t, Request{Op: OpInsert, Key: 9, Value: []byte{}})
	if got.Op != OpInsert || len(got.Value) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestQuickRequestRoundTrip(t *testing.T) {
	f := func(key uint64, val []byte, lookup bool) bool {
		req := Request{Op: OpInsert, Key: key, Value: val}
		if lookup {
			req = Request{Op: OpLookup, Key: key}
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := WriteRequest(w, req); err != nil {
			return false
		}
		w.Flush()
		got, err := decodeFresh(bufio.NewReader(&buf))
		if err != nil || got.Op != req.Op || got.Key != req.Key {
			return false
		}
		return bytes.Equal(got.Value, req.Value)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBatchOfRequests(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	reqs := []Request{
		{Op: OpLookup, Key: 1},
		{Op: OpInsert, Key: 2, Value: []byte("two")},
		{Op: OpLookup, Key: 3},
		{Op: OpInsert, Key: 4, Value: bytes.Repeat([]byte{0xAB}, 1000)},
	}
	for _, r := range reqs {
		if err := WriteRequest(w, r); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	r := bufio.NewReader(&buf)
	for i, want := range reqs {
		got, err := decodeFresh(r)
		if err != nil {
			t.Fatalf("req %d: %v", i, err)
		}
		if got.Op != want.Op || got.Key != want.Key || !bytes.Equal(got.Value, want.Value) {
			t.Fatalf("req %d mismatch", i)
		}
	}
	if _, err := decodeFresh(r); err != io.EOF {
		t.Fatalf("want io.EOF at end, got %v", err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteLookupResponse(w, []byte("hello"), true); err != nil {
		t.Fatal(err)
	}
	if err := WriteLookupResponse(w, nil, false); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r := bufio.NewReader(&buf)
	v, found, err := ReadLookupResponse(r, []byte("pre-"))
	if err != nil || !found || string(v) != "pre-hello" {
		t.Fatalf("first response: %q %v %v", v, found, err)
	}
	v, found, err = ReadLookupResponse(r, nil)
	if err != nil || found || len(v) != 0 {
		t.Fatalf("miss response: %q %v %v", v, found, err)
	}
}

func TestTruncatedStreamErrors(t *testing.T) {
	// A request cut mid-key must be ErrUnexpectedEOF, not clean EOF.
	full := func() []byte {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		WriteRequest(w, Request{Op: OpInsert, Key: 1, Value: []byte("abcdef")})
		w.Flush()
		return buf.Bytes()
	}()
	for cut := 1; cut < len(full); cut++ {
		r := bufio.NewReader(bytes.NewReader(full[:cut]))
		if _, err := decodeFresh(r); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: err = %v, want ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestBadOpRejected(t *testing.T) {
	r := bufio.NewReader(bytes.NewReader(append([]byte{99}, make([]byte, 12)...)))
	if _, err := decodeFresh(r); err == nil {
		t.Fatal("unknown op accepted")
	}
	var buf bytes.Buffer
	if err := WriteRequest(bufio.NewWriter(&buf), Request{Op: 99}); err == nil {
		t.Fatal("unknown op written")
	}
}

func TestOversizeRejected(t *testing.T) {
	// Writer-side guard.
	var sink bytes.Buffer
	w := bufio.NewWriter(&sink)
	big := make([]byte, MaxValueSize+1)
	if err := WriteRequest(w, Request{Op: OpInsert, Key: 1, Value: big}); err == nil {
		t.Fatal("oversize insert written")
	}
	if err := WriteLookupResponse(w, big, true); err == nil {
		t.Fatal("oversize response written")
	}
	// Reader-side guard: forge a huge declared size.
	var buf bytes.Buffer
	buf.WriteByte(OpInsert)
	buf.Write(make([]byte, 8))
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := decodeFresh(bufio.NewReader(&buf)); err == nil {
		t.Fatal("oversize declared size accepted")
	}
}

func BenchmarkRequestRoundTrip(b *testing.B) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	r := bufio.NewReader(&buf)
	req := Request{Op: OpInsert, Key: 12345, Value: make([]byte, 64)}
	var got Request
	var scratch []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		WriteRequest(w, req)
		w.Flush()
		scratch, _ = DecodeRequestInto(r, &got, scratch[:0])
	}
}
