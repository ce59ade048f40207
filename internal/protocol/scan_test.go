package protocol

import (
	"bufio"
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
)

func TestSlotSet(t *testing.T) {
	var s SlotSet
	if s.Len() != 0 {
		t.Fatalf("empty set Len = %d", s.Len())
	}
	for _, slot := range []int{0, 7, 8, 63, 200, 255} {
		s.Add(slot)
	}
	if s.Len() != 6 {
		t.Fatalf("Len = %d, want 6", s.Len())
	}
	for _, slot := range []int{0, 7, 8, 63, 200, 255} {
		if !s.Has(slot) {
			t.Errorf("Has(%d) = false", slot)
		}
	}
	for _, slot := range []int{1, 9, 64, 199, 254} {
		if s.Has(slot) {
			t.Errorf("Has(%d) = true", slot)
		}
	}
	// Out-of-range slots are ignored, not a panic or a wrap-around.
	s.Add(-1)
	s.Add(256)
	s.Add(1 << 20)
	if s.Len() != 6 || s.Has(-1) || s.Has(256) {
		t.Fatal("out-of-range slots must be ignored")
	}
}

func TestScanRequestRoundTrip(t *testing.T) {
	var slots SlotSet
	slots.Add(3)
	slots.Add(250)
	reqs := []Request{
		{Op: OpScan, Slots: slots, Cursor: 0, Count: 0},
		{Op: OpScan, Slots: slots, Cursor: 1<<48 | 42, Count: MaxScanBatch},
		{Op: OpPurge, Slots: slots, Cursor: 99, Count: 7},
	}
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for _, r := range reqs {
		if err := WriteRequest(w, r); err != nil {
			t.Fatalf("WriteRequest(%+v): %v", r, err)
		}
	}
	w.Flush()
	r := bufio.NewReader(&buf)
	for i, want := range reqs {
		got, err := decodeFresh(r)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := decodeFresh(r); err != io.EOF {
		t.Fatalf("trailing read: %v, want io.EOF", err)
	}
}

func TestScanRequestCountBound(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	err := WriteRequest(w, Request{Op: OpScan, Count: MaxScanBatch + 1})
	if err == nil || !strings.Contains(err.Error(), "count") {
		t.Fatalf("oversized count write: %v", err)
	}
}

func TestScanResponseRoundTrip(t *testing.T) {
	entries := []ScanEntry{
		{Key: 1, TTL: 0, Value: []byte("hello")},
		{Key: 1<<60 - 1, TTL: 1500, Value: nil},
		{Key: 42, TTL: 1, Value: bytes.Repeat([]byte{0xab}, 300)},
	}
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteScanResponse(w, 77, entries); err != nil {
		t.Fatal(err)
	}
	if err := WriteScanResponse(w, ScanDone, nil); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r := bufio.NewReader(&buf)
	next, got, err := ReadScanResponse(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if next != 77 {
		t.Fatalf("next = %d, want 77", next)
	}
	if len(got) != len(entries) {
		t.Fatalf("got %d entries, want %d", len(got), len(entries))
	}
	for i := range entries {
		if got[i].Key != entries[i].Key || got[i].TTL != entries[i].TTL ||
			!bytes.Equal(got[i].Value, entries[i].Value) {
			t.Fatalf("entry %d: got %+v, want %+v", i, got[i], entries[i])
		}
	}
	next, got, err = ReadScanResponse(r, got[:0])
	if err != nil {
		t.Fatal(err)
	}
	if next != ScanDone || len(got) != 0 {
		t.Fatalf("final batch: next=%d entries=%d", next, len(got))
	}
}

func TestScanResponseTruncated(t *testing.T) {
	entries := []ScanEntry{{Key: 9, TTL: 3, Value: []byte("abcdefgh")}}
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteScanResponse(w, 5, entries); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	full := buf.Bytes()
	// Every strict prefix (except the empty one, a clean EOF boundary)
	// must fail with an error, never a panic or a silent success.
	for cut := 1; cut < len(full); cut++ {
		r := bufio.NewReader(bytes.NewReader(full[:cut]))
		if _, _, err := ReadScanResponse(r, nil); err == nil {
			t.Fatalf("prefix of %d/%d bytes parsed cleanly", cut, len(full))
		}
	}
}

func TestScanResponseOversizedRejected(t *testing.T) {
	// Hand-craft an entry count over MaxScanBatch.
	raw := make([]byte, 12)
	raw[8] = 0xff
	raw[9] = 0xff
	raw[10] = 0xff
	raw[11] = 0x7f
	if _, _, err := ReadScanResponse(bufio.NewReader(bytes.NewReader(raw)), nil); err == nil {
		t.Fatal("oversized entry count parsed cleanly")
	}
	// And a value size over MaxValueSize.
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	WriteScanResponse(w, 0, nil)
	w.Flush()
	raw = buf.Bytes()
	raw[8] = 1 // one entry...
	raw = append(raw, make([]byte, 8)...)
	raw = append(raw, 0, 0, 0, 0)             // ttl
	raw = append(raw, 0xff, 0xff, 0xff, 0xff) // ...with a 4 GiB value
	if _, _, err := ReadScanResponse(bufio.NewReader(bytes.NewReader(raw)), nil); err == nil {
		t.Fatal("oversized value size parsed cleanly")
	}
}

func TestPurgeResponseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WritePurgeResponse(w, 12345, 678); err != nil {
		t.Fatal(err)
	}
	if err := WritePurgeResponse(w, ScanDone, 0); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r := bufio.NewReader(&buf)
	next, removed, err := ReadPurgeResponse(r)
	if err != nil || next != 12345 || removed != 678 {
		t.Fatalf("got (%d, %d, %v)", next, removed, err)
	}
	next, removed, err = ReadPurgeResponse(r)
	if err != nil || next != ScanDone || removed != 0 {
		t.Fatalf("got (%d, %d, %v)", next, removed, err)
	}
}
