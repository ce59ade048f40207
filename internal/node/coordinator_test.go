package node

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cphash/internal/client"
	"cphash/internal/obs"
	"cphash/internal/persist"
	"cphash/internal/replica"
)

// startCoordinator boots n replicated LOCKHASH members on loopback and
// waits for the mesh to sync.
func startCoordinator(t *testing.T, n int, tune func(*Config)) *Coordinator {
	t.Helper()
	cfg := Config{
		Backend:    "lockhash",
		Instances:  n,
		Capacity:   8 << 20,
		Workers:    2,
		Partitions: 8,
		Addr:       "127.0.0.1:0",
		Replicas:   2,
		Persist:    persist.Config{Dir: t.TempDir(), Policy: persist.SyncNone},
	}
	cfg.Source.Heartbeat = 10 * time.Millisecond
	cfg.Follower.Backoff = 20 * time.Millisecond
	if tune != nil {
		tune(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	deadline := time.Now().Add(10 * time.Second)
	for !c.Synced() {
		if time.Now().After(deadline) {
			t.Fatal("mesh did not sync")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return c
}

// liveLinks snapshots the mesh: follower → primary → link.
func liveLinks(c *Coordinator) map[string]map[string]*replica.Follower {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[string]map[string]*replica.Follower{}
	for fAddr, m := range c.links {
		out[fAddr] = map[string]*replica.Follower{}
		for pAddr, l := range m {
			out[fAddr][pAddr] = l.f
		}
	}
	return out
}

// TestRewireKeepsUnchangedLinks: rewire diffs the wanted mesh against
// the live one. A (follower, primary, slots) pairing that still matches
// keeps its *replica.Follower — and with it the synced session — while
// a pairing whose slot set changed gets a fresh link.
func TestRewireKeepsUnchangedLinks(t *testing.T) {
	c := startCoordinator(t, 3, nil)
	before := liveLinks(c)
	if len(before) != 3 {
		t.Fatalf("mesh has %d followers, want 3: %v", len(before), before)
	}

	// Pretend one pairing subscribed a slot the ring does not give it:
	// its recorded slot set no longer matches the wanted one.
	var changedF, changedP string
	c.mu.Lock()
	for fAddr, m := range c.links {
		for pAddr, l := range m {
			if changedF == "" {
				changedF, changedP = fAddr, pAddr
				for s := 0; ; s++ {
					if !l.slots.Has(s) {
						l.slots.Add(s)
						break
					}
				}
			}
		}
	}
	c.mu.Unlock()

	c.opMu.Lock()
	c.rewire()
	c.opMu.Unlock()
	after := liveLinks(c)
	for fAddr, m := range before {
		for pAddr, f := range m {
			got := after[fAddr][pAddr]
			if got == nil {
				t.Fatalf("link %s <- %s vanished", fAddr, pAddr)
			}
			changed := fAddr == changedF && pAddr == changedP
			if changed && got == f {
				t.Errorf("link %s <- %s kept its follower although its slot set changed", fAddr, pAddr)
			}
			if !changed && got != f {
				t.Errorf("link %s <- %s was restarted although its pairing is unchanged", fAddr, pAddr)
			}
		}
	}
}

// TestPromoteTwiceIsRefused: promotion is not idempotent by accident —
// a second promote of an address already failed over is an error and
// changes nothing.
func TestPromoteTwiceIsRefused(t *testing.T) {
	c := startCoordinator(t, 3, nil)
	victim := c.Members()[0].Addr
	if err := c.Promote(victim); err != nil {
		t.Fatal(err)
	}
	if n := c.Promotions(); n != 1 {
		t.Fatalf("Promotions = %d after one promote", n)
	}
	if err := c.Promote(victim); err == nil {
		t.Fatal("second promote of the same address succeeded")
	}
	if n := c.Promotions(); n != 1 {
		t.Fatalf("Promotions = %d after a refused promote, want 1", n)
	}
	if len(c.Members()) != 2 {
		t.Fatalf("%d members after one promotion of three", len(c.Members()))
	}
}

// TestAutoPromoteUnderLoad: failover does not wait for traffic to stop.
// Promotion streams nothing, so unlike join and leave it must not wait
// for the request counters to settle — with writers running on the
// survivors that wait would last its full bound, seconds, while the dead
// member's slots fail.
func TestAutoPromoteUnderLoad(t *testing.T) {
	c := startCoordinator(t, 3, func(cfg *Config) {
		cfg.AutoPromote = true
		cfg.Detect.Interval = 25 * time.Millisecond
		cfg.Detect.DownAfter = 150 * time.Millisecond
		cfg.ProbeTimeout = 100 * time.Millisecond
		cfg.AppProbe = true
		cfg.WitnessProbe = true
	})
	members := c.Members()
	victim := members[0].Addr
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, m := range members[1:] {
		cli, err := client.New(client.Config{Nodes: []string{m.Addr}})
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := uint64(0); !stop.Load(); k++ {
				if err := cli.Set(k%1000, []byte("v")); err != nil {
					t.Errorf("write to a survivor: %v", err)
					return
				}
				if _, _, err := cli.Get(k % 1000); err != nil {
					t.Errorf("read from a survivor: %v", err)
					return
				}
			}
		}()
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	time.Sleep(100 * time.Millisecond)

	killed := time.Now()
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	// The promotion is done once the migrator counted it and the
	// detector stopped watching the victim, which a successful Act
	// (refreshing the watch set on its way out) guarantees.
	watched := func() bool {
		for _, ts := range c.Detector().Status() {
			if ts.Target == victim {
				return true
			}
		}
		return false
	}
	for c.Promotions() == 0 || watched() {
		if time.Since(killed) > 5*time.Second {
			t.Fatal("no promotion within 5s of the kill")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if took := time.Since(killed); took > time.Second {
		t.Fatalf("kill → promotion took %v under load, want < 1s", took)
	}
}

// TestConcurrentAdminOps: join, leave, kill + promote and the read-only
// documents from four goroutines. Every interleaving keeps the member
// list consistent with the operations that succeeded, and the mesh only
// links current members.
func TestConcurrentAdminOps(t *testing.T) {
	c := startCoordinator(t, 4, nil)
	members := c.Members()
	var joins, leaves atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	run := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	run(func() {
		if _, err := c.Join(); err == nil {
			joins.Add(1)
		} else {
			t.Logf("join: %v", err)
		}
	})
	run(func() {
		if err := c.Leave(members[1].Addr); err == nil {
			leaves.Add(1)
		} else {
			t.Logf("leave: %v", err)
		}
	})
	run(func() {
		if err := c.Promote(members[2].Addr); err != nil {
			t.Logf("promote: %v", err)
		}
		if err := c.Kill(members[3].Addr); err != nil {
			t.Logf("kill: %v", err)
		}
		if err := c.Promote(members[3].Addr); err != nil {
			t.Logf("promote after kill: %v", err)
		}
	})
	var reads sync.WaitGroup
	reads.Add(1)
	go func() {
		defer reads.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			c.Collect(obs.NewExpo())
			_ = c.StatsDoc()
			_ = c.ReplicationDoc()
			_ = c.PersistenceDoc()
			_ = c.MigrationDoc()
			_ = c.TotalRequests()
		}
	}()
	wg.Wait()
	close(done)
	reads.Wait()

	want := 4 + joins.Load() - leaves.Load() - c.Promotions()
	got := c.Members()
	if int64(len(got)) != want {
		t.Fatalf("%d members, want %d (4 + %d joins - %d leaves - %d promotions)",
			len(got), want, joins.Load(), leaves.Load(), c.Promotions())
	}
	live := map[string]bool{}
	for _, m := range got {
		live[m.Addr] = true
	}
	for fAddr, m := range liveLinks(c) {
		for pAddr := range m {
			if !live[fAddr] || !live[pAddr] {
				t.Errorf("link %s <- %s names a departed member", fAddr, pAddr)
			}
		}
	}
}
