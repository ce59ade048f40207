package kvserver

import (
	"bytes"
	"fmt"
	"testing"

	"cphash/internal/client"
	"cphash/internal/persist"
	"cphash/internal/protocol"
)

// TestRecoverPreservesRMWVersions: CAS version tokens are durable state,
// not an in-memory artifact. A value built up through the
// read-modify-write ops (add, incr, append, cas) must come back from a
// warm restart with the exact version the client last saw — otherwise a
// cached gets token turns into a spurious EXISTS (or worse, a false
// STORED against a regressed version) after every restart. The WAL
// replay path makes this work by re-inserting with the logged version
// (partition.Store.Put with an explicit version) instead of assigning
// fresh ones.
func TestRecoverPreservesRMWVersions(t *testing.T) {
	dir := t.TempDir()
	srv, table, pipe, _ := persistServer(t, dir, persist.SyncInterval)

	c, err := client.New(client.Config{Nodes: []string{srv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}

	// Build each key through a different mutation history so the WAL
	// holds a mix of fresh inserts, overwrites, and composed values.
	const keys = 40
	wantVal := make(map[string][]byte, keys)
	wantVer := make(map[string]uint64, keys)
	for i := 0; i < keys; i++ {
		k := []byte(fmt.Sprintf("rmw:durable:%d", i))
		if out, err := c.AddString(k, []byte("10"), 0); err != nil || !out.Stored() {
			t.Fatalf("add %s: %+v %v", k, out, err)
		}
		switch i % 4 {
		case 0: // leave as the freshly added value
		case 1:
			for j := 0; j < 3; j++ {
				if out, err := c.IncrString(k, 7); err != nil || !out.Stored() {
					t.Fatalf("incr %s: %+v %v", k, out, err)
				}
			}
		case 2:
			if out, err := c.AppendString(k, []byte("-tail")); err != nil || !out.Stored() {
				t.Fatalf("append %s: %+v %v", k, out, err)
			}
		case 3:
			_, ver, found, err := c.GetsString(k)
			if err != nil || !found {
				t.Fatalf("gets %s: found=%v err=%v", k, found, err)
			}
			if out, err := c.CasString(k, []byte("cas-written"), ver, 0); err != nil || !out.Stored() {
				t.Fatalf("cas %s: %+v %v", k, out, err)
			}
		}
		v, ver, found, err := c.GetsString(k)
		if err != nil || !found {
			t.Fatalf("pre-restart gets %s: found=%v err=%v", k, found, err)
		}
		wantVal[string(k)] = append([]byte{}, v...)
		wantVer[string(k)] = ver
	}
	c.Close()

	if err := pipe.Snapshot(); err != nil { // half snapshot, half WAL tail
		t.Fatal(err)
	}
	// A post-snapshot mutation so the WAL tail also carries a version.
	c2, err := client.New(client.Config{Nodes: []string{srv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	tailKey := []byte("rmw:durable:0")
	if out, err := c2.IncrString(tailKey, 5); err != nil || !out.Stored() {
		t.Fatalf("tail incr: %+v %v", out, err)
	}
	v, ver, found, err := c2.GetsString(tailKey)
	if err != nil || !found {
		t.Fatalf("tail gets: found=%v err=%v", found, err)
	}
	wantVal[string(tailKey)] = append([]byte{}, v...)
	wantVer[string(tailKey)] = ver
	c2.Close()

	srv.Close()
	table.Close()

	srv2, table2, _, rst := persistServer(t, dir, persist.SyncInterval)
	defer table2.Close()
	defer srv2.Close()
	if rst.SnapshotEntries == 0 && rst.WALRecords == 0 {
		t.Fatalf("restore recovered nothing: %+v", rst)
	}

	c3, err := client.New(client.Config{Nodes: []string{srv2.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	for i := 0; i < keys; i++ {
		k := []byte(fmt.Sprintf("rmw:durable:%d", i))
		v, ver, found, err := c3.GetsString(k)
		if err != nil || !found {
			t.Fatalf("post-restart gets %s: found=%v err=%v", k, found, err)
		}
		if !bytes.Equal(v, wantVal[string(k)]) || ver != wantVer[string(k)] {
			t.Fatalf("post-restart %s = %q v%d, want %q v%d", k, v, ver, wantVal[string(k)], wantVer[string(k)])
		}
		// The recovered token must actually work: a CAS against it is the
		// real consumer of version durability.
		out, err := c3.CasString(k, []byte("post-restart"), ver, 0)
		if err != nil || out.Status != protocol.RMWStatusStored {
			t.Fatalf("cas with recovered token on %s: %+v %v", k, out, err)
		}
		if out.Ver <= ver {
			t.Fatalf("cas after restart on %s: version went %d → %d, want strictly increasing", k, ver, out.Ver)
		}
	}
}
