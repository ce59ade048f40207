package memcache

import (
	"testing"

	"cphash/internal/kvserver"
	"cphash/internal/loadgen"
	"cphash/internal/protocol"
	"cphash/internal/workload"
)

// TestClusterWithLoadgen: the client-side key split reaches every
// instance with no corrupt reply, and a second Close is a no-op.
func TestClusterWithLoadgen(t *testing.T) {
	cluster, err := ServeCluster(4, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if len(cluster.Addrs()) != 4 {
		t.Fatalf("addrs = %v", cluster.Addrs())
	}
	// 1,024 keys and 10k ops: inserts cover most of the key space, so the
	// steady-state hit rate is solidly positive even from a cold cache.
	res, err := loadgen.Run(loadgen.Config{
		Addrs:      cluster.Addrs(),
		Conns:      2,
		Pipeline:   32,
		Spec:       workload.Default(8 << 10),
		OpsPerConn: 5000,
		Validate:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BadBytes != 0 {
		t.Fatalf("%d corrupt responses", res.BadBytes)
	}
	if res.HitRate() < 0.3 {
		t.Fatalf("hit rate %.2f", res.HitRate())
	}
	for i, srv := range cluster.Servers {
		if srv.Stats().Requests == 0 {
			t.Errorf("instance %d received no traffic", i)
		}
	}
	cluster.Close()
}

// TestSmallInstanceEvictsLRUAndDropsOversize: over the wire, a full
// single-lock instance evicts its oldest key to admit the newest, and a
// value larger than the whole instance is dropped, not stored.
func TestSmallInstanceEvictsLRUAndDropsOversize(t *testing.T) {
	cluster, err := ServeCluster(1, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	w, r, conn, err := kvserver.Dial(cluster.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const last = 199
	for k := uint64(0); k <= last; k++ {
		protocol.WriteRequest(w, protocol.Request{Op: protocol.OpInsert, Key: k, Value: make([]byte, 64)})
	}
	protocol.WriteRequest(w, protocol.Request{Op: protocol.OpLookup, Key: 0})
	protocol.WriteRequest(w, protocol.Request{Op: protocol.OpLookup, Key: last})
	protocol.WriteRequest(w, protocol.Request{Op: protocol.OpInsert, Key: 1000, Value: make([]byte, 8<<10)})
	protocol.WriteRequest(w, protocol.Request{Op: protocol.OpLookup, Key: 1000})
	w.Flush()
	for _, want := range []struct {
		what  string
		found bool
	}{{"LRU victim", false}, {"newest key", true}, {"oversize value", false}} {
		_, found, err := protocol.ReadLookupResponse(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		if found != want.found {
			t.Errorf("%s: found = %v, want %v", want.what, found, want.found)
		}
	}
}
