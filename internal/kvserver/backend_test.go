package kvserver

import (
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
// the new value in both backends.
func TestBackendInsertThenLookupSameBatch(t *testing.T) {
	for name, b := range newBackends(t) {
		t.Run(name, func(t *testing.T) {
			reqs := []protocol.Request{
				{Op: protocol.OpInsert, Key: 1, Value: []byte("alpha")},
				{Op: protocol.OpLookup, Key: 1},
				{Op: protocol.OpInsert, Key: 1, Value: []byte("beta")},
				{Op: protocol.OpLookup, Key: 1},
				{Op: protocol.OpLookup, Key: 2}, // never inserted
			}
			results, buf := processOne(b, reqs)
			if !results[1].Found || string(buf[results[1].Start:results[1].End]) != "alpha" {
				t.Errorf("first lookup = %+v (%q)", results[1], buf)
			}
			if !results[3].Found || string(buf[results[3].Start:results[3].End]) != "beta" {
				t.Errorf("second lookup = %+v", results[3])
			}
			if results[4].Found {
				t.Error("phantom hit for key 2")
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
