package rebalance

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cphash/internal/client"
	"cphash/internal/cluster"
	"cphash/internal/core"
	"cphash/internal/kvserver"
	"cphash/internal/lockhash"
	"cphash/internal/protocol"
)

// node is one in-process server plus a handle to its table for invariant
// checks after the dust settles.
type node struct {
	srv   *kvserver.Server
	check func() error
}

// startLockNode brings up a lockhash-backed server (cheap: no spinning
// server goroutines, which matters on single-CPU CI hosts).
func startLockNode(t testing.TB) *node {
	t.Helper()
	table := lockhash.MustNew(lockhash.Config{Partitions: 16, CapacityBytes: 8 << 20})
	srv, err := kvserver.Serve(kvserver.Config{
		Addr:       "127.0.0.1:0",
		Workers:    1,
		NewBackend: kvserver.NewLockHashBackend(table),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return &node{srv: srv, check: table.CheckInvariants}
}

// startCPNode brings up a CPSERVER (message-passing CPHASH backend), so at
// least one migration test exercises the scan-job path end to end.
func startCPNode(t testing.TB) *node {
	t.Helper()
	table := core.MustNew(core.Config{
		Partitions:    2,
		CapacityBytes: 8 << 20,
		MaxClients:    1,
		Seed:          1,
	})
	srv, err := kvserver.Serve(kvserver.Config{
		Addr:       "127.0.0.1:0",
		Workers:    1,
		NewBackend: kvserver.NewCPHashBackend(table),
	})
	if err != nil {
		table.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); table.Close() })
	return &node{srv: srv, check: table.CheckInvariants}
}

const seedTTL = time.Hour // long enough that nothing expires mid-test

// seedData writes the reference working set: fixed keys 0..n-1 (every
// fourth with a TTL) plus nStr string keys, and read-backs everything so
// the writes are fully published before any migration starts.
func seedData(t *testing.T, c *client.Client, n, nStr int) {
	t.Helper()
	for k := uint64(0); k < uint64(n); k++ {
		var err error
		if k%4 == 0 {
			err = c.SetTTL(k, []byte(fmt.Sprintf("value-%d", k)), seedTTL)
		} else {
			err = c.Set(k, []byte(fmt.Sprintf("value-%d", k)))
		}
		if err != nil {
			t.Fatalf("seed Set(%d): %v", k, err)
		}
	}
	for i := 0; i < nStr; i++ {
		if err := c.SetString(strKey(i), []byte(fmt.Sprintf("strval-%d", i))); err != nil {
			t.Fatalf("seed SetString(%d): %v", i, err)
		}
	}
	verifyData(t, c, n, nStr, "seed read-back")
}

func strKey(i int) []byte { return []byte(fmt.Sprintf("user:%d:profile", i)) }

// verifyData asserts the whole reference set is readable with the right
// values — the no-loss half of the migration invariant.
func verifyData(t *testing.T, c *client.Client, n, nStr int, when string) {
	t.Helper()
	for k := uint64(0); k < uint64(n); k++ {
		v, found, err := c.Get(k)
		if err != nil {
			t.Fatalf("%s: Get(%d): %v", when, k, err)
		}
		if !found || string(v) != fmt.Sprintf("value-%d", k) {
			t.Fatalf("%s: Get(%d) = %q found=%v — key lost", when, k, v, found)
		}
	}
	for i := 0; i < nStr; i++ {
		v, found, err := c.GetString(strKey(i))
		if err != nil {
			t.Fatalf("%s: GetString(%d): %v", when, i, err)
		}
		if !found || string(v) != fmt.Sprintf("strval-%d", i) {
			t.Fatalf("%s: GetString(%d) = %q found=%v — key lost", when, i, v, found)
		}
	}
}

// verifyPlacement scans every live member and asserts the no-duplication
// half of the invariant: every routed key lives on exactly one member —
// the one the ring names — and TTLs survived within (0, seedTTL].
func verifyPlacement(t *testing.T, c *client.Client, when string) {
	t.Helper()
	ring := c.Ring()
	var all protocol.SlotSet
	for s := 0; s < cluster.Slots; s++ {
		all.Add(s)
	}
	where := map[uint64][]string{}
	for _, addr := range ring.Nodes() {
		err := c.ScanNode(addr, &all, 256, func(e protocol.ScanEntry) error {
			where[e.Key] = append(where[e.Key], addr)
			if e.TTL != 0 && time.Duration(e.TTL)*time.Millisecond > seedTTL {
				return fmt.Errorf("key %d: TTL grew to %d ms", e.Key, e.TTL)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: scan %s: %v", when, addr, err)
		}
	}
	for k, addrs := range where {
		if len(addrs) != 1 {
			t.Fatalf("%s: key %d duplicated on %v", when, k, addrs)
		}
		if owner := ring.NodeOf(k); addrs[0] != owner {
			t.Fatalf("%s: key %d on %s, ring owner %s", when, k, addrs[0], owner)
		}
	}
}

// TestMigrationInvariantProperty is the migration-invariant property test:
// for a random (seeded) sequence of AddNode/RemoveNode operations over a
// seeded data set, after every rebalance the set of readable keys equals
// the original set — no loss, no duplication, TTLs preserved — and every
// key lives exactly where the ring says it should.
func TestMigrationInvariantProperty(t *testing.T) {
	nKeys, nStr, steps := 400, 40, 5
	if testing.Short() {
		nKeys, nStr, steps = 150, 15, 3
	}

	// A pool of servers; membership starts with two and wanders.
	pool := make([]*node, 5)
	for i := range pool {
		pool[i] = startLockNode(t)
	}
	member := map[string]bool{pool[0].srv.Addr(): true, pool[1].srv.Addr(): true}
	c, err := client.New(client.Config{Nodes: []string{pool[0].srv.Addr(), pool[1].srv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := New(c, Config{Batch: 128})

	seedData(t, c, nKeys, nStr)
	verifyPlacement(t, c, "after seed")

	rng := rand.New(rand.NewSource(42))
	for step := 0; step < steps; step++ {
		// Pick a legal random topology change.
		var candidates []string
		add := rng.Intn(2) == 0 || len(member) <= 1
		if len(member) == len(pool) {
			add = false
		}
		for _, nd := range pool {
			a := nd.srv.Addr()
			if member[a] != add {
				candidates = append(candidates, a)
			}
		}
		addr := candidates[rng.Intn(len(candidates))]
		var what string
		if add {
			what = fmt.Sprintf("step %d: AddNode(%s)", step, addr)
			err = m.AddNode(addr)
			member[addr] = true
		} else {
			what = fmt.Sprintf("step %d: RemoveNode(%s)", step, addr)
			err = m.RemoveNode(addr)
			delete(member, addr)
		}
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if pending := c.MigratingSlots(); pending != 0 {
			t.Fatalf("%s: %d slots still migrating", what, pending)
		}
		verifyData(t, c, nKeys, nStr, what)
		verifyPlacement(t, c, what)
	}

	st := m.Stats()
	if st.Migrations != int64(steps) || st.SlotsDone != st.SlotsTotal || st.ReplayErrors != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Entries == 0 || st.Replayed != st.Entries {
		t.Fatalf("nothing streamed? %+v", st)
	}
	for _, nd := range pool {
		if err := nd.check(); err != nil {
			t.Fatalf("table invariants: %v", err)
		}
	}
}

// TestMigrationCPHashBackend runs one add + one remove against CPSERVER
// nodes, exercising the scan-job path (iteration on the owning server
// goroutines) end to end.
func TestMigrationCPHashBackend(t *testing.T) {
	nKeys, nStr := 200, 20
	if testing.Short() {
		nKeys, nStr = 80, 8
	}
	a, b, d := startCPNode(t), startCPNode(t), startCPNode(t)
	c, err := client.New(client.Config{Nodes: []string{a.srv.Addr(), b.srv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := New(c, Config{Batch: 64})

	seedData(t, c, nKeys, nStr)
	if err := m.AddNode(d.srv.Addr()); err != nil {
		t.Fatal(err)
	}
	verifyData(t, c, nKeys, nStr, "after AddNode")
	verifyPlacement(t, c, "after AddNode")
	if err := m.RemoveNode(b.srv.Addr()); err != nil {
		t.Fatal(err)
	}
	verifyData(t, c, nKeys, nStr, "after RemoveNode")
	verifyPlacement(t, c, "after RemoveNode")
}

// TestMigrationRaceUnderLoad is the -race hammer: Get/Set/Delete traffic
// runs concurrently with a live join and a live leave. Keys in the stable
// range are never written during the migrations and must all survive with
// their original values (no lost updates); churn keys are allowed any
// racy outcome (cache semantics) but must never produce an error other
// than a clean miss. Run with -race to also hunt double-frees in the
// partition iteration paths.
func TestMigrationRaceUnderLoad(t *testing.T) {
	nStable := 300
	churnWriters := 3
	if testing.Short() {
		nStable = 120
		churnWriters = 2
	}

	nodes := []*node{startLockNode(t), startLockNode(t), startLockNode(t)}
	joining := startLockNode(t)
	addrs := []string{nodes[0].srv.Addr(), nodes[1].srv.Addr(), nodes[2].srv.Addr()}
	c, err := client.New(client.Config{Nodes: addrs, ConnsPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := New(c, Config{Batch: 64})

	seedData(t, c, nStable, 0)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var trafficErrs atomic.Int64
	// Churn traffic: writes/deletes on keys ≥ 1<<20, reads everywhere.
	for w := 0; w < churnWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 7))
			base := uint64(1<<20 + w*1000)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := base + uint64(rng.Intn(200))
				switch rng.Intn(4) {
				case 0:
					if _, err := c.Delete(k); err != nil {
						trafficErrs.Add(1)
					}
				case 1, 2:
					if err := c.Set(k, []byte(fmt.Sprintf("churn-%d-%d", w, i))); err != nil {
						trafficErrs.Add(1)
					}
				default:
					if _, _, err := c.Get(k); err != nil {
						trafficErrs.Add(1)
					}
				}
				// Reads of the stable range must hit THROUGHOUT the
				// migration (dual-read window).
				sk := uint64(rng.Intn(nStable))
				if _, found, err := c.Get(sk); err != nil || !found {
					t.Errorf("stable Get(%d) during migration: found=%v err=%v", sk, found, err)
					trafficErrs.Add(1)
					return
				}
			}
		}(w)
	}

	// Live join, then live leave, under the traffic above.
	if err := m.AddNode(joining.srv.Addr()); err != nil {
		t.Fatalf("AddNode under load: %v", err)
	}
	if err := m.RemoveNode(addrs[1]); err != nil {
		t.Fatalf("RemoveNode under load: %v", err)
	}
	close(stop)
	wg.Wait()

	if t.Failed() {
		return
	}
	verifyData(t, c, nStable, 0, "after live join+leave")
	verifyPlacement(t, c, "after live join+leave")
	st := m.Stats()
	if st.Migrations != 2 || st.SlotsDone != st.SlotsTotal {
		t.Fatalf("stats: %+v", st)
	}
	for _, nd := range append(nodes, joining) {
		if err := nd.check(); err != nil {
			t.Fatalf("table invariants: %v", err)
		}
	}
}

// resume retries a failed plan or promotion the way the next topology
// change does before anything else.
func resume(m *Migrator) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.resumeLocked()
}

// TestMigrationSourceFailureKeepsWindowOpen: if a source dies mid-stream,
// the migrator reports the error and the dual-read window stays open, so
// no settled read path points at data that never moved.
func TestMigrationSourceFailureKeepsWindowOpen(t *testing.T) {
	a, b := startLockNode(t), startLockNode(t)
	c, err := client.New(client.Config{
		Nodes:       []string{a.srv.Addr()},
		MaxRetries:  1,
		DownBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := New(c, Config{})

	for k := uint64(0); k < 100; k++ {
		if err := c.Set(k, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	// Kill the (only) source, then try to migrate to b: the plan must
	// fail and every moved slot must still be pending.
	mig, err := c.AddNode(b.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	a.srv.Close()
	if err := m.Run(mig); err == nil {
		t.Fatal("migration off a dead source reported success")
	}
	if c.MigratingSlots() != mig.Slots() {
		t.Fatalf("window closed despite failure: %d of %d pending",
			c.MigratingSlots(), mig.Slots())
	}
	if m.Pending() == 0 {
		t.Fatal("failed plan not retained for resume")
	}

	// The coordinator is not wedged: once the fault clears (here the
	// source comes back empty, as after a crash), a resume finishes the
	// plan and settles routing.
	table := lockhash.MustNew(lockhash.Config{Partitions: 16, CapacityBytes: 4 << 20})
	revived, err := kvserver.Serve(kvserver.Config{
		Addr:       a.srv.Addr(),
		Workers:    1,
		NewBackend: kvserver.NewLockHashBackend(table),
	})
	if err != nil {
		t.Fatalf("rebinding the source address: %v", err)
	}
	t.Cleanup(func() { revived.Close() })
	time.Sleep(50 * time.Millisecond) // let the failed dial's backoff lapse
	if err := resume(m); err != nil {
		t.Fatalf("resume after the source returned: %v", err)
	}
	if c.MigratingSlots() != 0 || m.Pending() != 0 {
		t.Fatalf("resume left %d slots / %d sources pending", c.MigratingSlots(), m.Pending())
	}
	if resume(m) != nil {
		t.Fatal("a resume with nothing pending must be a no-op")
	}
}
