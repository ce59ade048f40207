package rebalance

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cphash/internal/client"
	"cphash/internal/cluster"
	"cphash/internal/kvserver"
	"cphash/internal/lockhash"
)

// startReplNode is startLockNode exposing the table, so promotion tests
// can stage replica copies the way internal/replica would have.
func startReplNode(t *testing.T) (*kvserver.Server, *lockhash.Table) {
	t.Helper()
	table := lockhash.MustNew(lockhash.Config{Partitions: 8, CapacityBytes: 8 << 20})
	srv, err := kvserver.Serve(kvserver.Config{
		Addr:       "127.0.0.1:0",
		Workers:    1,
		NewBackend: kvserver.NewLockHashBackend(table),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, table
}

// TestPromoteFailsOverToStandby kills a member whose slots were
// replicated to their standbys and checks that Promote flips ownership
// without data movement: every key stays readable with its exact value,
// routing settles, and the dead member leaves the ring.
func TestPromoteFailsOverToStandby(t *testing.T) {
	const nodes, keys = 3, 600
	srvs := make([]*kvserver.Server, nodes)
	tables := make(map[string]*lockhash.Table, nodes)
	addrs := make([]string, nodes)
	for i := range srvs {
		srv, table := startReplNode(t)
		srvs[i], addrs[i] = srv, srv.Addr()
		tables[srv.Addr()] = table
	}

	c, err := client.New(client.Config{Nodes: addrs, DownBackoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	m := New(c, Config{})

	for k := uint64(0); k < keys; k++ {
		if err := c.Set(k, []byte(fmt.Sprintf("value-%d", k))); err != nil {
			t.Fatalf("seed Set(%d): %v", k, err)
		}
	}

	// Stage what internal/replica maintains continuously: every slot's
	// entries mirrored on the slot's standby member.
	ring := c.Ring()
	for k := uint64(0); k < keys; k++ {
		if sb := ring.Standby(cluster.SlotOf(k)); sb != "" {
			tables[sb].Put(k, []byte(fmt.Sprintf("value-%d", k)))
		}
	}

	victim := addrs[0]
	srvs[0].Close()

	var confirmed []string
	err = m.Promote(victim, func(newOwner string, slots []int) error {
		if newOwner == victim {
			t.Errorf("promotion targeted the dead member itself")
		}
		if len(slots) == 0 {
			t.Errorf("confirm called with no slots for %s", newOwner)
		}
		confirmed = append(confirmed, newOwner)
		return nil
	})
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}

	if c.MigratingSlots() != 0 {
		t.Fatalf("windows still open after promotion: %d", c.MigratingSlots())
	}
	if c.Ring().Contains(victim) {
		t.Fatal("dead member still in the ring")
	}
	if len(confirmed) == 0 {
		t.Fatal("confirm was never called")
	}
	if st := m.Stats(); st.Promotions != 1 || st.Entries != 0 {
		t.Fatalf("stats after promotion: %+v (want Promotions=1 and no streamed entries)", st)
	}
	for k := uint64(0); k < keys; k++ {
		v, found, err := c.Get(k)
		if err != nil {
			t.Fatalf("Get(%d) after promotion: %v", k, err)
		}
		if !found || string(v) != fmt.Sprintf("value-%d", k) {
			t.Fatalf("Get(%d) after promotion = %q found=%v", k, v, found)
		}
	}
}

// TestPromoteResumesAfterConfirmFailure drives the straggler path: one
// new owner's confirm fails, the promotion stays pending with its
// windows open, and a resume re-confirms only the failed owner.
func TestPromoteResumesAfterConfirmFailure(t *testing.T) {
	const nodes = 3
	addrs := make([]string, nodes)
	srvs := make([]*kvserver.Server, nodes)
	for i := range srvs {
		srv, _ := startReplNode(t)
		srvs[i], addrs[i] = srv, srv.Addr()
	}
	c, err := client.New(client.Config{Nodes: addrs, DownBackoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	m := New(c, Config{})

	victim := addrs[0]
	srvs[0].Close()

	failFor := ""
	calls := map[string]int{}
	confirm := func(newOwner string, slots []int) error {
		calls[newOwner]++
		if failFor == "" {
			failFor = newOwner // fail the first owner we see, once
		}
		if newOwner == failFor && calls[newOwner] == 1 {
			return errors.New("watermark not reached")
		}
		return nil
	}

	if err := m.Promote(victim, confirm); err == nil {
		t.Fatal("Promote succeeded despite a failing confirm")
	}
	if c.MigratingSlots() == 0 {
		t.Fatal("no window left open for the unconfirmed owner")
	}
	if st := m.Stats(); st.Promotions != 0 {
		t.Fatalf("promotion counted before completion: %+v", st)
	}

	if err := resume(m); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if c.MigratingSlots() != 0 {
		t.Fatalf("windows still open after resume: %d", c.MigratingSlots())
	}
	if got := calls[failFor]; got != 2 {
		t.Fatalf("failed owner confirmed %d times, want 2", got)
	}
	for owner, n := range calls {
		if owner != failFor && n != 1 {
			t.Fatalf("owner %s re-confirmed %d times after success", owner, n)
		}
	}
	if st := m.Stats(); st.Promotions != 1 {
		t.Fatalf("stats after resume: %+v", st)
	}
	if c.Ring().Contains(victim) {
		t.Fatal("dead member still in the ring after resume")
	}
}
