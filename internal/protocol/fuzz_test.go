package protocol

import (
	"bufio"
	"bytes"
	"io"
	"testing"
	"testing/quick"
)

// TestQuickReadRequestNeverPanics: arbitrary byte streams must produce a
// request or an error, never a panic or a huge allocation.
func TestQuickReadRequestNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		r := bufio.NewReader(bytes.NewReader(raw))
		for {
			req, err := decodeFresh(r)
			if err != nil {
				return true // any error terminates parsing cleanly
			}
			if len(req.Value) > MaxValueSize {
				return false
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickReadResponseNeverPanics: same for the response parser.
func TestQuickReadResponseNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		r := bufio.NewReader(bytes.NewReader(raw))
		for {
			v, _, err := ReadLookupResponse(r, nil)
			if err != nil {
				return true
			}
			if len(v) > MaxValueSize {
				return false
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickValidStreamAlwaysParses: any sequence of valid requests written
// back-to-back parses back to identical requests — with arbitrary trailing
// garbage detected as an error, not silently swallowed.
func TestQuickValidStreamAlwaysParses(t *testing.T) {
	f := func(keys []uint64, vals [][]byte) bool {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		var want []Request
		for i, k := range keys {
			var req Request
			if i < len(vals) && vals[i] != nil {
				v := vals[i]
				if len(v) > 1024 {
					v = v[:1024]
				}
				req = Request{Op: OpInsert, Key: k, Value: v}
			} else {
				req = Request{Op: OpLookup, Key: k}
			}
			if WriteRequest(w, req) != nil {
				return false
			}
			want = append(want, req)
		}
		w.Flush()
		r := bufio.NewReader(&buf)
		for _, wr := range want {
			got, err := decodeFresh(r)
			if err != nil || got.Op != wr.Op || got.Key != wr.Key || !bytes.Equal(got.Value, wr.Value) {
				return false
			}
		}
		_, err := decodeFresh(r)
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// requestEqual compares parsed requests field by field, treating nil and
// empty slices as equal (the wire cannot distinguish them).
func requestEqual(a, b Request) bool {
	return a.Op == b.Op && a.Key == b.Key && a.TTL == b.TTL &&
		bytes.Equal(a.StrKey, b.StrKey) && bytes.Equal(a.Value, b.Value) &&
		a.Slots == b.Slots && a.Cursor == b.Cursor && a.Count == b.Count
}

// TestQuickV2StreamRoundTrips: arbitrary mixed streams of every version-2
// op (DELETE, INSERT_TTL, GET_STR, SET_STR, DEL_STR) interleaved with
// version-1 ops round-trip exactly.
func TestQuickV2StreamRoundTrips(t *testing.T) {
	ops := []uint8{OpLookup, OpInsert, OpDelete, OpInsertTTL, OpGetStr, OpSetStr, OpDelStr}
	f := func(sel []uint8, keys []uint64, ttls []uint32, blobs [][]byte) bool {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		var want []Request
		blob := func(i, max int) []byte {
			if len(blobs) == 0 {
				return []byte{}
			}
			b := blobs[i%len(blobs)]
			if len(b) > max {
				b = b[:max]
			}
			if b == nil {
				b = []byte{}
			}
			return b
		}
		for i, s := range sel {
			req := Request{Op: ops[int(s)%len(ops)]}
			if len(keys) > 0 {
				req.Key = keys[i%len(keys)]
			}
			switch req.Op {
			case OpGetStr, OpSetStr, OpDelStr:
				req.Key = 0
				req.StrKey = blob(i, MaxKeyLen)
			}
			switch req.Op {
			case OpInsertTTL, OpSetStr:
				if len(ttls) > 0 {
					req.TTL = ttls[i%len(ttls)]
				}
			}
			switch req.Op {
			case OpInsert, OpInsertTTL, OpSetStr:
				req.Value = blob(i+1, 1024)
			}
			if err := WriteRequest(w, req); err != nil {
				return false
			}
			want = append(want, req)
		}
		w.Flush()
		r := bufio.NewReader(&buf)
		for _, wr := range want {
			got, err := decodeFresh(r)
			if err != nil || !requestEqual(got, wr) {
				return false
			}
		}
		_, err := decodeFresh(r)
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickV3StreamRoundTrips: arbitrary mixed streams including the
// version-3 SCAN/PURGE frames (slot bitmaps, cursors, counts) round-trip
// exactly and terminate with a clean EOF.
func TestQuickV3StreamRoundTrips(t *testing.T) {
	f := func(sel []uint8, slots [][]byte, cursors []uint64, counts []uint32, keys []uint64) bool {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		var want []Request
		for i, s := range sel {
			var req Request
			switch s % 4 {
			case 0:
				req = Request{Op: OpScan}
			case 1:
				req = Request{Op: OpPurge}
			case 2:
				req = Request{Op: OpLookup}
			case 3:
				req = Request{Op: OpDelete}
			}
			if len(keys) > 0 {
				k := keys[i%len(keys)]
				if req.Op == OpScan || req.Op == OpPurge {
					if len(cursors) > 0 {
						req.Cursor = cursors[i%len(cursors)]
					}
					if len(counts) > 0 {
						req.Count = counts[i%len(counts)] % (MaxScanBatch + 1)
					}
					if len(slots) > 0 {
						for _, b := range slots[i%len(slots)] {
							req.Slots.Add(int(b))
						}
					}
				} else {
					req.Key = k
				}
			}
			if err := WriteRequest(w, req); err != nil {
				return false
			}
			want = append(want, req)
		}
		w.Flush()
		r := bufio.NewReader(&buf)
		for _, wr := range want {
			got, err := decodeFresh(r)
			if err != nil || !requestEqual(got, wr) {
				return false
			}
		}
		_, err := decodeFresh(r)
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickReadScanResponseNeverPanics: arbitrary byte streams fed to the
// scan-response parser produce entries or an error, never a panic or an
// over-bound allocation.
func TestQuickReadScanResponseNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		r := bufio.NewReader(bytes.NewReader(raw))
		for {
			_, entries, err := ReadScanResponse(r, nil)
			if err != nil {
				return true
			}
			if len(entries) > MaxScanBatch {
				return false
			}
			for _, e := range entries {
				if len(e.Value) > MaxValueSize {
					return false
				}
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickScanResponseRoundTrips: scan batches of arbitrary entries
// round-trip exactly (values clipped to a sane fuzz bound).
func TestQuickScanResponseRoundTrips(t *testing.T) {
	f := func(next uint64, ks []uint64, ttls []uint32, vals [][]byte) bool {
		var entries []ScanEntry
		for i, k := range ks {
			e := ScanEntry{Key: k}
			if len(ttls) > 0 {
				e.TTL = ttls[i%len(ttls)]
			}
			if len(vals) > 0 {
				v := vals[i%len(vals)]
				if len(v) > 1024 {
					v = v[:1024]
				}
				e.Value = v
			}
			entries = append(entries, e)
			if len(entries) == MaxScanBatch {
				break
			}
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if WriteScanResponse(w, next, entries) != nil {
			return false
		}
		w.Flush()
		gotNext, got, err := ReadScanResponse(bufio.NewReader(&buf), nil)
		if err != nil || gotNext != next || len(got) != len(entries) {
			return false
		}
		for i := range entries {
			if got[i].Key != entries[i].Key || got[i].TTL != entries[i].TTL ||
				!bytes.Equal(got[i].Value, entries[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeleteResponseRoundTrips: delete responses round-trip and the
// reader never panics on garbage (it is a single byte, so any byte parses).
func TestQuickDeleteResponseRoundTrips(t *testing.T) {
	f := func(found []bool) bool {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		for _, fd := range found {
			if WriteDeleteResponse(w, fd) != nil {
				return false
			}
		}
		w.Flush()
		r := bufio.NewReader(&buf)
		for _, fd := range found {
			got, err := ReadDeleteResponse(r)
			if err != nil || got != fd {
				return false
			}
		}
		_, err := ReadDeleteResponse(r)
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickStringEntryRoundTrips: AppendStringEntry/CutStringEntry are
// inverses for the matching key, and a different key never reads the
// entry (unless it is byte-identical).
func TestQuickStringEntryRoundTrips(t *testing.T) {
	f := func(key, other, value []byte) bool {
		raw := AppendStringEntry(nil, key, value)
		v, ok := CutStringEntry(raw, key)
		if !ok || !bytes.Equal(v, value) {
			return false
		}
		if !bytes.Equal(other, key) {
			if _, ok := CutStringEntry(raw, other); ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestOversizeFramesRejected: writer and reader both refuse frames beyond
// the protocol bounds.
func TestOversizeFramesRejected(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteRequest(w, Request{Op: OpSetStr, StrKey: make([]byte, MaxKeyLen+1)}); err == nil {
		t.Error("oversize string key accepted by writer")
	}
	if err := WriteRequest(w, Request{Op: OpInsertTTL, Key: 1, Value: make([]byte, MaxValueSize+1)}); err == nil {
		t.Error("oversize value accepted by writer")
	}
	// A crafted oversize klen on the wire must be rejected by the reader.
	buf.Reset()
	buf.Write([]byte{OpGetStr, 0xff, 0xff}) // klen = 65535 > MaxKeyLen
	if _, err := decodeFresh(bufio.NewReader(&buf)); err == nil {
		t.Error("oversize wire klen accepted by reader")
	}
}
