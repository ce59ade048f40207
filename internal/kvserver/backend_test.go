package kvserver

import (
	"bytes"
	"fmt"
	"testing"

	"cphash/internal/core"
	"cphash/internal/lockhash"
	"cphash/internal/protocol"
)

// newBackends builds one backend of each kind over fresh tables.
func newBackends(t *testing.T) map[string]Backend {
	t.Helper()
	table := core.MustNew(core.Config{Partitions: 2, CapacityBytes: 4 << 20, MaxClients: 1, Seed: 5})
	t.Cleanup(table.Close)
	cpb, err := NewCPHashBackend(table)(0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cpb.Close)
	out := map[string]Backend{"cphash": cpb}
	// "memcache" is the memcached-style baseline: LOCKHASH with one
	// partition, so a single lock guards the whole table.
	for name, partitions := range map[string]int{"lockhash": 64, "memcache": 1} {
		lt := lockhash.MustNew(lockhash.Config{Partitions: partitions, CapacityBytes: 4 << 20, Seed: 5})
		lhb, err := NewLockHashBackend(lt)(0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(lhb.Close)
		out[name] = lhb
	}
	return out
}

func processOne(b Backend, reqs []protocol.Request) ([]Result, []byte) {
	results := make([]Result, len(reqs))
	buf := b.ProcessBatch(reqs, results, nil)
	return results, buf
}

// TestBackendInsertThenLookupSameBatch: the dependency case that once hung
// CPSERVER — a lookup of a key inserted earlier in the same batch must see
// the new value in every backend. On CPHASH a value of at most a cache
// line is published by the insert message itself and needs no settle
// barrier; a larger one still does, also when the two kinds overwrite each
// other with both inserts in flight.
func TestBackendInsertThenLookupSameBatch(t *testing.T) {
	small, large := []byte("alpha"), bytes.Repeat([]byte("0123456789abcdef"), 64)
	for name, b := range newBackends(t) {
		t.Run(name, func(t *testing.T) {
			for i, vals := range [][2][]byte{{small, []byte("beta")}, {large, large[:999]}, {large, small}, {small, large}} {
				key := uint64(1 + i)
				reqs := []protocol.Request{
					{Op: protocol.OpInsert, Key: key, Value: vals[0]},
					{Op: protocol.OpLookup, Key: key},
					{Op: protocol.OpInsert, Key: key, Value: vals[1]},
					{Op: protocol.OpLookup, Key: key},
					{Op: protocol.OpLookup, Key: 99}, // never inserted
					// Overwrite with the first insert still in flight.
					{Op: protocol.OpInsert, Key: key + 100, Value: vals[0]},
					{Op: protocol.OpInsert, Key: key + 100, Value: vals[1]},
					{Op: protocol.OpLookup, Key: key + 100},
				}
				results, buf := processOne(b, reqs)
				if !results[7].Found || !bytes.Equal(buf[results[7].Start:results[7].End], vals[1]) {
					t.Errorf("case %d: lookup after back-to-back inserts = %+v", i, results[7])
				}
				if !results[1].Found || !bytes.Equal(buf[results[1].Start:results[1].End], vals[0]) {
					t.Errorf("case %d: first lookup = %+v", i, results[1])
				}
				if !results[3].Found || !bytes.Equal(buf[results[3].Start:results[3].End], vals[1]) {
					t.Errorf("case %d: second lookup = %+v", i, results[3])
				}
				if results[4].Found {
					t.Error("phantom hit for key 99")
				}
			}
		})
	}
}

// TestBackendLookupBeforeInsert: a lookup *preceding* the insert in the
// batch must miss (no time travel).
func TestBackendLookupBeforeInsert(t *testing.T) {
	for name, b := range newBackends(t) {
		t.Run(name, func(t *testing.T) {
			reqs := []protocol.Request{
				{Op: protocol.OpLookup, Key: 77},
				{Op: protocol.OpInsert, Key: 77, Value: []byte("later")},
			}
			results, _ := processOne(b, reqs)
			if results[0].Found {
				t.Error("lookup saw an insert issued after it")
			}
			// And the value is durable for the next batch.
			results, buf := processOne(b, []protocol.Request{{Op: protocol.OpLookup, Key: 77}})
			if !results[0].Found || string(buf[results[0].Start:results[0].End]) != "later" {
				t.Errorf("second batch lookup = %+v", results[0])
			}
		})
	}
}

// TestBackendLargeBatch: hundreds of interleaved ops in one batch keep
// their per-index result mapping intact.
func TestBackendLargeBatch(t *testing.T) {
	for name, b := range newBackends(t) {
		t.Run(name, func(t *testing.T) {
			var reqs []protocol.Request
			for i := 0; i < 300; i++ {
				k := uint64(i % 50)
				if i%3 == 0 {
					reqs = append(reqs, protocol.Request{
						Op: protocol.OpInsert, Key: k,
						Value: []byte(fmt.Sprintf("v%d-%d", k, i)),
					})
				} else {
					reqs = append(reqs, protocol.Request{Op: protocol.OpLookup, Key: k})
				}
			}
			results, buf := processOne(b, reqs)
			// Verify each lookup returned the most recent preceding insert
			// for its key (or missed if there was none).
			latest := map[uint64]string{}
			for i, r := range reqs {
				if r.Op == protocol.OpInsert {
					latest[r.Key] = string(r.Value)
					continue
				}
				want, present := latest[r.Key]
				got := results[i]
				if got.Found != present {
					t.Fatalf("%s: req %d key %d: found=%v, want %v", name, i, r.Key, got.Found, present)
				}
				if present && string(buf[got.Start:got.End]) != want {
					t.Fatalf("%s: req %d key %d: value %q, want %q",
						name, i, r.Key, buf[got.Start:got.End], want)
				}
			}
		})
	}
}

// TestBackendEmptyBatch: a zero-length batch is a no-op.
func TestBackendEmptyBatch(t *testing.T) {
	for name, b := range newBackends(t) {
		buf := b.ProcessBatch(nil, nil, nil)
		if len(buf) != 0 {
			t.Errorf("%s: empty batch produced %d bytes", name, len(buf))
		}
	}
}
