package core

import (
	"bytes"
	"testing"

	"cphash/internal/partition"
)

// TestSameBatchSemantics runs dependent operations on one key, and on a
// second key in the same bucket chain, as one ring batch: the server
// prefetches the whole batch first, then must still execute it in ring
// order, each request seeing every earlier one. The server is held inside
// a scan filter while the client publishes, so all the requests are on the
// ring when it next sweeps and it consumes them in one batch.
func TestSameBatchSemantics(t *testing.T) {
	tb := newTestTable(t, Config{Partitions: 1, BucketsPerPartition: 8})
	c := tb.MustClient(0)
	const gate, k = Key(1000), Key(7)
	k2 := k + 1
	for partition.Mix64(k2)&7 != partition.Mix64(k)&7 {
		k2++
	}
	if !c.Put(gate, []byte("gate")) {
		t.Fatal("gate insert failed")
	}

	entered, release, scanned := make(chan struct{}), make(chan struct{}), make(chan error)
	go func() {
		held := false
		_, _, _, _, err := tb.ScanEntries(0, 1, func(Key) bool {
			if !held { // runs on the server goroutine
				held = true
				close(entered)
				<-release
			}
			return false
		}, nil, nil)
		scanned <- err
	}()
	<-entered

	v1, v2 := []byte("value-one"), []byte("value-two")
	ins2 := c.InsertAsync(k2, v2)
	ins := c.InsertAsync(k, v1)
	get := c.LookupAsync(k)
	app := c.RMWAsync(k, partition.RMWReq{Op: partition.RMWAppend, Val: []byte("+tail")})
	del := c.DeleteAsync(k)
	gone := c.LookupAsync(k)
	get2 := c.LookupAsync(k2)
	c.FlushAll()
	if n := c.Poll(); n != 0 {
		t.Fatalf("%d replies while the server was held", n)
	}
	close(release)
	if err := <-scanned; err != nil {
		t.Fatal(err)
	}
	c.WaitAll()

	if !ins2.Hit() || !ins.Hit() {
		t.Fatalf("inserts stored = %v, %v", ins2.Hit(), ins.Hit())
	}
	if !get.Hit() || !bytes.Equal(get.Value(), v1) || get.Version() == 0 {
		t.Fatalf("lookup after insert: hit %v, %q v%d", get.Hit(), get.Value(), get.Version())
	}
	if r := app.RMW(); r.Status != partition.RMWStored || r.OutVer <= get.Version() {
		t.Fatalf("append after lookup: %v v%d, want stored above v%d", r.Status, r.OutVer, get.Version())
	}
	if !del.Hit() {
		t.Fatal("delete after append found nothing")
	}
	if gone.Hit() {
		t.Fatalf("lookup after delete hit %q", gone.Value())
	}
	if !get2.Hit() || !bytes.Equal(get2.Value(), v2) {
		t.Fatalf("lookup of the chain neighbour: hit %v, %q", get2.Hit(), get2.Value())
	}
	for _, o := range []*Op{ins2, ins, get, app, del, gone, get2} {
		c.Release(o)
	}
	if got, ok := c.Get(k, nil); ok {
		t.Fatalf("deleted key reads back %q", got)
	}
	if st := tb.Stats(); st.Elements != 2 {
		t.Fatalf("%d elements, want the gate and the neighbour", st.Elements)
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
