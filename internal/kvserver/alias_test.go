package kvserver

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"testing"

	"cphash/internal/core"
	"cphash/internal/lockhash"
	"cphash/internal/partition"
	"cphash/internal/protocol"
)

// encodeBatch serializes requests the way a client would put them on the
// wire, then decodes them back through DecodeRequestInto into one shared
// arena — exactly the server readLoop's code path.
func decodeIntoArena(t *testing.T, arena []byte, wire ...protocol.Request) ([]protocol.Request, []byte) {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for _, r := range wire {
		if err := protocol.WriteRequest(w, r); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	br := bufio.NewReader(&buf)
	out := make([]protocol.Request, len(wire))
	for i := range out {
		var err error
		arena, err = protocol.DecodeRequestInto(br, &out[i], arena)
		if err != nil {
			t.Fatal(err)
		}
	}
	return out, arena
}

// runNoRetentionTest drives the no-retention contract for one Backend:
// decode a batch into a recycled arena, process it, settle the responses,
// scribble over the arena (as the recycling reader will), and verify that
// both the stored values and the already-buffered wire responses are
// unaffected.
func runNoRetentionTest(t *testing.T, backend Backend) {
	t.Helper()
	const (
		fixedKey = uint64(41)
		strKey   = "aliased-string-key"
	)
	fixedVal := []byte("fixed-key-value-bytes")
	strVal := []byte("string-key-value-bytes")

	arena := make([]byte, 0, 1024)
	reqs, arena := decodeIntoArena(t, arena,
		protocol.Request{Op: protocol.OpInsertTTL, Key: fixedKey, TTL: 0, Value: fixedVal},
		protocol.Request{Op: protocol.OpSetStr, StrKey: []byte(strKey), Value: strVal},
		protocol.Request{Op: protocol.OpLookup, Key: fixedKey},
		protocol.Request{Op: protocol.OpGetStr, StrKey: []byte(strKey)},
	)
	results := make([]Result, len(reqs))
	buf := backend.ProcessBatch(reqs, results, nil)

	// Buffer the lookup responses like the worker does, then recycle the
	// arena: every byte the requests carried gets clobbered.
	var wireOut bytes.Buffer
	bw := bufio.NewWriter(&wireOut)
	for i := 2; i < 4; i++ {
		r := results[i]
		if !r.Found {
			t.Fatalf("request %d missed; the batch's own insert should be visible", i)
		}
		if err := protocol.WriteLookupResponse(bw, buf[r.Start:r.End], r.Found); err != nil {
			t.Fatal(err)
		}
	}
	bw.Flush()
	for i := range arena {
		arena[i] = 0xEE
	}

	// The wire responses were copied before the scribble.
	brr := bufio.NewReader(&wireOut)
	got, found, err := protocol.ReadLookupResponse(brr, nil)
	if err != nil || !found || !bytes.Equal(got, fixedVal) {
		t.Fatalf("fixed-key response = %q (found=%v, err=%v), want %q", got, found, err, fixedVal)
	}
	got, found, err = protocol.ReadLookupResponse(brr, nil)
	if err != nil || !found || !bytes.Equal(got, strVal) {
		t.Fatalf("string-key response = %q (found=%v, err=%v), want %q", got, found, err, strVal)
	}

	// And the stored values must be copies, not aliases of the arena: a
	// fresh batch on a fresh arena must read the original bytes back.
	reqs2, _ := decodeIntoArena(t, nil,
		protocol.Request{Op: protocol.OpLookup, Key: fixedKey},
		protocol.Request{Op: protocol.OpGetStr, StrKey: []byte(strKey)},
	)
	results2 := make([]Result, len(reqs2))
	buf2 := backend.ProcessBatch(reqs2, results2, nil)
	if r := results2[0]; !r.Found || !bytes.Equal(buf2[r.Start:r.End], fixedVal) {
		t.Fatalf("stored fixed-key value = %q (found=%v), want %q — the backend retained arena bytes",
			buf2[r.Start:r.End], r.Found, fixedVal)
	}
	if r := results2[1]; !r.Found || !bytes.Equal(buf2[r.Start:r.End], strVal) {
		t.Fatalf("stored string-key value = %q (found=%v), want %q — the backend retained arena bytes",
			buf2[r.Start:r.End], r.Found, strVal)
	}
}

func TestNoRetention_CPHashBackend(t *testing.T) {
	table := core.MustNew(core.Config{
		Partitions:    2,
		CapacityBytes: 1 << 20,
		MaxClients:    1,
		Seed:          1,
	})
	defer table.Close()
	b, err := NewCPHashBackend(table)(0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	runNoRetentionTest(t, b)
}

func TestNoRetention_LockHashBackend(t *testing.T) {
	table := lockhash.MustNew(lockhash.Config{CapacityBytes: 1 << 20, Seed: 1})
	b, err := NewLockHashBackend(table)(0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	runNoRetentionTest(t, b)
}

// TestArenaRecyclingWire hammers the full server path through recycled
// per-connection arenas: pipelined windows of string-key SETs with
// distinct payloads followed by GETs, so every window rewrites the arenas
// the previous window decoded into. Any retention of arena bytes by the
// batch path shows up as a corrupted read. Each window's requests and
// responses both exceed DefaultBufferSize, so the bufio buffers on
// either side flush mid-window too.
func TestArenaRecyclingWire(t *testing.T) {
	const keys = 64
	const windows = 50
	const payload = DefaultBufferSize/keys + 512
	table := core.MustNew(core.Config{
		Partitions:    2,
		CapacityBytes: partition.CapacityForValues(4*keys, payload),
		MaxClients:    1,
		Seed:          1,
	})
	defer table.Close()
	srv, err := Serve(Config{
		Addr:       "127.0.0.1:0",
		Workers:    1,
		NewBackend: NewCPHashBackend(table),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	bw, br, closer, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	value := func(w, k int) string {
		v := fmt.Sprintf("window-%03d-key-%02d-payload", w, k)
		return v + strings.Repeat(v[len(v)-16:], (payload-len(v))/16)
	}
	for w := 0; w < windows; w++ {
		for k := 0; k < keys; k++ {
			key := []byte(fmt.Sprintf("key-%02d", k))
			if err := protocol.WriteRequest(bw, protocol.Request{Op: protocol.OpSetStr, StrKey: key, Value: []byte(value(w, k))}); err != nil {
				t.Fatal(err)
			}
			if err := protocol.WriteRequest(bw, protocol.Request{Op: protocol.OpGetStr, StrKey: key}); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		var dst []byte
		for k := 0; k < keys; k++ {
			var found bool
			dst, found, err = protocol.ReadLookupResponse(br, dst[:0])
			if err != nil {
				t.Fatal(err)
			}
			if want := value(w, k); !found || string(dst) != want {
				t.Fatalf("window %d key %d: got %.40q… (found=%v), want %.40q… — arena recycling corrupted a value",
					w, k, dst, found, want)
			}
		}
	}
}
