package protocol

import (
	"bufio"
	"bytes"
	"testing"
)

// everyOp returns one request of each opcode, key and value lengths
// chosen by n.
func everyOp(n int) []Request {
	var slots SlotSet
	slots.Add(n % SlotCount)
	var reqs []Request
	for op := uint8(1); OpVersion(op) != 0; op++ {
		r := Request{Op: op, Key: uint64(n), TTL: 9, Ver: 8, Delta: 7, Prefix: 4, Slots: slots, Cursor: 3, Count: 2}
		if hasStrKey(op) {
			r.StrKey = bytes.Repeat([]byte{'k'}, n%300)
		}
		if hasValue(op) {
			r.Value = bytes.Repeat([]byte{'v'}, n*37%5000)
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// TestFrameLen: for every opcode, FrameLen of a whole frame is its length,
// FrameLen of any shorter prefix is 0 or that length (never a wrong one,
// never an error), and DecodeRequestInto consumes exactly that many bytes.
func TestFrameLen(t *testing.T) {
	for _, n := range []int{0, 1, 5, 70, 299} {
		reqs := everyOp(n)
		if len(reqs) != 28 {
			t.Fatalf("%d opcodes, want 28", len(reqs))
		}
		for _, req := range reqs {
			var b bytes.Buffer
			w := bufio.NewWriter(&b)
			if err := WriteRequest(w, req); err != nil {
				t.Fatal(err)
			}
			w.Flush()
			f := b.Bytes()
			for k := 0; k <= len(f); k++ {
				got, err := FrameLen(f[:k])
				if err != nil || (got != 0 && got != len(f)) || (k == len(f) && got != len(f)) {
					t.Fatalf("op %d, %d-byte frame: FrameLen of its first %d bytes = %d, %v", req.Op, len(f), k, got, err)
				}
			}
			r := bufio.NewReaderSize(bytes.NewReader(append(f, OpLookup)), 16<<10)
			r.Peek(len(f))
			before := r.Buffered()
			var out Request
			if _, err := DecodeRequestInto(r, &out, nil); err != nil {
				t.Fatalf("op %d: %v", req.Op, err)
			}
			if used := before - r.Buffered(); used != len(f) {
				t.Fatalf("op %d: decoding consumed %d bytes, FrameLen says %d", req.Op, used, len(f))
			}
		}
	}
}

// TestFrameLenRejects: the headers DecodeRequestInto refuses are errors.
func TestFrameLenRejects(t *testing.T) {
	for _, p := range [][]byte{
		{0},
		{OpInsertVer + 1},
		{0xff, 1, 2},
		{OpGetStr, 0x01, 0x10}, // klen 4097
		{OpInsert, 1, 2, 3, 4, 5, 6, 7, 8, 0x01, 0x00, 0x00, 0x01}, // size 16 MiB + 1
	} {
		if n, err := FrameLen(p); err == nil {
			t.Errorf("FrameLen(% x) = %d, want an error", p, n)
		}
	}
}

// TestFrameLen_NoAllocs: the server calls FrameLen on every pipelined
// frame, so it must not allocate.
func TestFrameLen_NoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	var b bytes.Buffer
	w := bufio.NewWriter(&b)
	for _, req := range everyOp(70) {
		WriteRequest(w, req)
	}
	w.Flush()
	stream := b.Bytes()
	allocs := testing.AllocsPerRun(100, func() {
		for p := stream; len(p) > 0; {
			n, err := FrameLen(p)
			if err != nil || n == 0 {
				t.Fatalf("FrameLen = %d, %v", n, err)
			}
			p = p[n:]
		}
	})
	if allocs > 0 {
		t.Errorf("FrameLen allocates %.1f allocs/run, want 0", allocs)
	}
}
