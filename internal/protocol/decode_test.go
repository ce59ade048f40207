package protocol

import (
	"bufio"
	"bytes"
	"testing"
)

// encodeAll serializes requests into one stream.
func encodeAll(t *testing.T, reqs ...Request) *bufio.Reader {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for _, r := range reqs {
		if err := WriteRequest(w, r); err != nil {
			t.Fatalf("WriteRequest: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return bufio.NewReader(&buf)
}

// TestDecodeRequestInto_RoundTrip decodes a stream through one recycled
// arena and requires exactly the requests written, down to whether
// StrKey is nil: the servers tell string-key ops apart by it.
func TestDecodeRequestInto_RoundTrip(t *testing.T) {
	var slots SlotSet
	slots.Add(3)
	slots.Add(250)
	reqs := []Request{
		{Op: OpLookup, Key: 42},
		{Op: OpInsert, Key: 7, Value: []byte("value-bytes")},
		{Op: OpInsertTTL, Key: 9, TTL: 1500, Value: []byte("ttl-value")},
		{Op: OpGetStr, StrKey: []byte("a-string-key")},
		{Op: OpSetStr, StrKey: []byte("k"), TTL: 12, Value: []byte("v")},
		{Op: OpSetStr, StrKey: []byte{}, Value: []byte{}},
		{Op: OpDelStr, StrKey: []byte("gone")},
		{Op: OpDelete, Key: 1},
		{Op: OpScan, Slots: slots, Cursor: 77, Count: 10},
		{Op: OpPurge, Slots: slots, Cursor: ScanDone - 1},
	}
	arena := encodeAll(t, reqs...)
	var scratch []byte
	var req Request
	for i, want := range reqs {
		var err error
		scratch, err = DecodeRequestInto(arena, &req, scratch[:0])
		if err != nil {
			t.Fatalf("req %d: DecodeRequestInto: %v", i, err)
		}
		if req.Op != want.Op || req.Key != want.Key || req.TTL != want.TTL ||
			req.Cursor != want.Cursor || req.Count != want.Count || req.Slots != want.Slots {
			t.Fatalf("req %d: fixed fields differ: got %+v want %+v", i, req, want)
		}
		if !bytes.Equal(req.StrKey, want.StrKey) || (req.StrKey == nil) != (want.StrKey == nil) {
			t.Fatalf("req %d: StrKey = %q (nil=%v), want %q (nil=%v)",
				i, req.StrKey, req.StrKey == nil, want.StrKey, want.StrKey == nil)
		}
		if !bytes.Equal(req.Value, want.Value) || (req.Value == nil) != (want.Value == nil) {
			t.Fatalf("req %d: Value = %q (nil=%v), want %q (nil=%v)",
				i, req.Value, req.Value == nil, want.Value, want.Value == nil)
		}
	}
}

// TestDecodeRequestInto_AliasesScratch verifies the ownership contract:
// decoded bytes live in the returned arena, and recycling the arena for
// the next request reuses the same backing memory (no per-request
// allocation).
func TestDecodeRequestInto_AliasesScratch(t *testing.T) {
	r := encodeAll(t,
		Request{Op: OpSetStr, StrKey: []byte("key-one"), Value: []byte("value-one")},
		Request{Op: OpSetStr, StrKey: []byte("key-two"), Value: []byte("value-two")},
	)
	scratch := make([]byte, 0, 256)
	base := &scratch[:1][0]
	var req Request
	scratch, err := DecodeRequestInto(r, &req, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(req.StrKey) + len(req.Value); len(scratch) != got {
		t.Fatalf("scratch grew to %d bytes, want %d (StrKey+Value)", len(scratch), got)
	}
	if &req.StrKey[0] != &scratch[0] {
		t.Fatal("StrKey does not alias the scratch arena")
	}
	if &scratch[0] != base {
		t.Fatal("scratch was reallocated despite sufficient capacity")
	}
	// Overwriting the arena must clobber the decoded request — that IS the
	// aliasing contract the server's recycling relies on.
	copy(scratch, "XXXXXXX")
	if string(req.StrKey) != "XXXXXXX" {
		t.Fatalf("expected StrKey to observe arena overwrite, got %q", req.StrKey)
	}
	// Recycle for the next frame: same backing array, fresh contents.
	scratch, err = DecodeRequestInto(r, &req, scratch[:0])
	if err != nil {
		t.Fatal(err)
	}
	if &scratch[0] != base {
		t.Fatal("recycled decode reallocated the arena")
	}
	if string(req.StrKey) != "key-two" || string(req.Value) != "value-two" {
		t.Fatalf("recycled decode got (%q, %q)", req.StrKey, req.Value)
	}
}

// TestDecodeRequestInto_TruncationLeavesScratchUngrown checks the error
// contract: a truncated frame must not leave half-read bytes in the arena.
func TestDecodeRequestInto_TruncationLeavesScratchUngrown(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteRequest(w, Request{Op: OpInsert, Key: 3, Value: bytes.Repeat([]byte("x"), 100)}); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	trunc := buf.Bytes()[:buf.Len()-10]
	var req Request
	scratch := make([]byte, 0, 256)
	scratch, err := DecodeRequestInto(bufio.NewReader(bytes.NewReader(trunc)), &req, scratch)
	if err == nil {
		t.Fatal("expected truncation error")
	}
	if len(scratch) != 0 {
		t.Fatalf("scratch grew to %d bytes on a failed decode", len(scratch))
	}

	// A SET_STR truncated after its string key was already appended must
	// still return scratch un-grown — the key bytes roll back too.
	buf.Reset()
	w = bufio.NewWriter(&buf)
	if err := WriteRequest(w, Request{Op: OpSetStr, StrKey: []byte("the-key"), Value: bytes.Repeat([]byte("y"), 50)}); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	trunc = buf.Bytes()[:buf.Len()-10]
	scratch, err = DecodeRequestInto(bufio.NewReader(bytes.NewReader(trunc)), &req, scratch[:0])
	if err == nil {
		t.Fatal("expected truncation error")
	}
	if len(scratch) != 0 {
		t.Fatalf("scratch kept %d bytes (the decoded key?) on a failed SET_STR decode", len(scratch))
	}
}

// TestReadScanResponseInto_Arena round-trips a scan batch through the
// arena variant and verifies values and arena recycling.
func TestReadScanResponseInto_Arena(t *testing.T) {
	entries := []ScanEntry{
		{Key: 1, TTL: 0, Value: []byte("alpha")},
		{Key: 2, TTL: 900, Value: []byte("beta-bytes")},
		{Key: 3, TTL: 0, Value: []byte{}},
	}
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteScanResponse(w, 55, entries); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	scratch := make([]byte, 0, 64)
	dst := make([]ScanEntry, 0, 4)
	next, got, scratch, err := ReadScanResponseInto(bufio.NewReader(&buf), dst, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if next != 55 || len(got) != len(entries) {
		t.Fatalf("next=%d len=%d, want 55, %d", next, len(got), len(entries))
	}
	for i, e := range got {
		if e.Key != entries[i].Key || e.TTL != entries[i].TTL || !bytes.Equal(e.Value, entries[i].Value) {
			t.Fatalf("entry %d = %+v, want %+v", i, e, entries[i])
		}
		if e.Value == nil {
			t.Fatalf("entry %d has nil value", i)
		}
	}
	if want := len("alpha") + len("beta-bytes"); len(scratch) != want {
		t.Fatalf("arena holds %d bytes, want %d", len(scratch), want)
	}
}

// TestWireCodecs_NoAllocs pins the zero-allocation property of the
// steady-state codec paths; a regression here silently reintroduces a
// per-operation allocation on every server in the fleet.
func TestWireCodecs_NoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	var stream bytes.Buffer
	w := bufio.NewWriterSize(&stream, 64<<10)
	r := bufio.NewReaderSize(&stream, 64<<10)
	val := bytes.Repeat([]byte("v"), 64)
	scratch := make([]byte, 0, 256)
	dst := make([]byte, 0, 256)
	var req Request

	writeAllocs := testing.AllocsPerRun(200, func() {
		stream.Reset()
		w.Reset(&stream)
		if err := WriteRequest(w, Request{Op: OpLookup, Key: 1}); err != nil {
			t.Fatal(err)
		}
		if err := WriteRequest(w, Request{Op: OpInsert, Key: 2, Value: val}); err != nil {
			t.Fatal(err)
		}
		if err := WriteLookupResponse(w, val, true); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	if writeAllocs > 0 {
		t.Errorf("write path allocates %.1f allocs/run, want 0", writeAllocs)
	}

	readAllocs := testing.AllocsPerRun(200, func() {
		stream.Reset()
		w.Reset(&stream)
		_ = WriteRequest(w, Request{Op: OpLookup, Key: 1})
		_ = WriteRequest(w, Request{Op: OpInsert, Key: 2, Value: val})
		_ = WriteLookupResponse(w, val, true)
		_ = w.Flush()
		r.Reset(&stream)
		var err error
		if scratch, err = DecodeRequestInto(r, &req, scratch[:0]); err != nil {
			t.Fatal(err)
		}
		if scratch, err = DecodeRequestInto(r, &req, scratch[:0]); err != nil {
			t.Fatal(err)
		}
		var found bool
		if dst, found, err = ReadLookupResponse(r, dst[:0]); err != nil || !found {
			t.Fatalf("lookup response: found=%v err=%v", found, err)
		}
	})
	if readAllocs > 0 {
		t.Errorf("read path allocates %.1f allocs/run, want 0", readAllocs)
	}
}
