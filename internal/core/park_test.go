package core

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cphash/internal/partition"
)

// Every wait in the package goes through one parker: set the flag,
// re-check, block; the other side publishes, then kicks. The tests below
// make every wait park and check that nothing is lost when it does: a
// lost wake-up hangs, so run them under -timeout.

// parkAlways makes every wait park at its first empty poll or sweep for
// the rest of the test. Tables must be built after the call.
func parkAlways(t *testing.T) {
	cs, ps := clientSpins, parkAfterSweeps
	clientSpins, parkAfterSweeps = 0, 0
	t.Cleanup(func() { clientSpins, parkAfterSweeps = cs, ps })
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestParkRechecks: a condition changed, and kicked for, just before the
// waiter raised its flag leaves no token; only the re-check can see it.
func TestParkRechecks(t *testing.T) {
	p := &newParkers(1)[0]
	var ready atomic.Bool
	ready.Store(true)
	p.kick() // not parked yet: a no-op
	done := make(chan struct{})
	go func() {
		p.park(ready.Load)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		p.wake <- struct{}{}
		t.Fatal("park slept through a condition that held before the flag went up")
	}
}

// TestSmallRingStressParked is TestSmallRingStress with no spinning at
// all: a client parks whenever a poll completes nothing, a server after
// every empty sweep, so each wait crosses the park/kick hand-off.
func TestSmallRingStressParked(t *testing.T) {
	parkAlways(t)
	smallRingStress(t)
}

// TestFullReplyRingKicksParkedClient: a server whose reply ring fills in
// the middle of a batch kicks the ring's client before it spins waiting
// for the drain. A Client does not get there by itself today (a batch is
// at most one ring of requests, and its re-check sees every reply it was
// not kicked for), so the test plays the parked client by hand: it leaves
// a full ring of replies unconsumed, raises the flag, and publishes
// another ring of lookups.
func TestFullReplyRingKicksParkedClient(t *testing.T) {
	tb := newTestTable(t, Config{Partitions: 1, MaxClients: 1, RingCapacity: 4})
	c := tb.MustClient(0)
	defer c.Close()
	lookups := func() {
		for k := Key(0); k < 4; k++ {
			c.LookupAsync(k)
		}
		c.FlushAll()
	}
	lookups()
	waitFor(t, "a full reply ring and a parked server", func() bool {
		return c.from[0].Len() == 4 && tb.servers[0].parked.Load()
	})
	select {
	case <-c.park.wake: // a token left by the first batch's kick
	default:
	}
	c.park.parked.Store(true)
	lookups()
	select {
	case <-c.park.wake:
	case <-time.After(2 * time.Second):
		t.Error("the server spun on a full reply ring without kicking its parked client")
	}
	c.park.parked.Store(false)
	c.WaitAll() // the drain lets the batch complete
	if c.Outstanding() != 0 || c.Completed() != 8 {
		t.Fatalf("%d outstanding, %d completed; want 0, 8", c.Outstanding(), c.Completed())
	}
}

// gateSink stalls its server inside the first Set after it is armed,
// until release is closed.
type gateSink struct {
	armed            atomic.Bool
	entered, release chan struct{}
}

func (g *gateSink) Set(Key, []byte, int64, uint64) {
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
}

func (g *gateSink) Delete(Key) {}

// TestCloseWithParkedClients: with two clients parked in Wait behind a
// stalled server, neither they nor Table.Close return while it is stalled,
// and all three return once it moves again: the servers' last sweep
// replies to every request published before Close.
func TestCloseWithParkedClients(t *testing.T) {
	g := &gateSink{entered: make(chan struct{}), release: make(chan struct{})}
	release := sync.OnceFunc(func() { close(g.release) })
	defer release()
	tb := MustNew(Config{Partitions: 1, CapacityBytes: 1 << 20, MaxClients: 2, Seed: 1,
		Sink: func(int) partition.ChangeSink { return g }})
	writer, reader := tb.MustClient(0), tb.MustClient(1)

	done := make(chan string, 3)
	g.armed.Store(true)
	go func() {
		writer.Put(2, []byte("x")) // the server stalls publishing it
		done <- "writing client"
	}()
	<-g.entered
	waitFor(t, "the writing client to park", writer.park.parked.Load)
	go func() {
		reader.Get(2, nil) // queued behind the stall
		done <- "reading client"
	}()
	waitFor(t, "the reading client to park", reader.park.parked.Load)
	go func() {
		tb.Close()
		done <- "Table.Close"
	}()
	select {
	case who := <-done:
		t.Fatalf("the %s returned while the server was stalled", who)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	for i := 0; i < 3; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of 3 returned", i)
		}
	}
}

// TestIdleServersStopSweeping: shortly after the last request, every
// server has parked, so the idle-sweep count stops growing.
func TestIdleServersStopSweeping(t *testing.T) {
	tb := newTestTable(t, Config{Partitions: 2})
	c := tb.MustClient(0)
	defer c.Close()
	for k := Key(0); k < 1000; k++ {
		c.Put(k, []byte("v"))
		c.Get(k, nil)
	}
	time.Sleep(10 * time.Millisecond)
	before := tb.Stats().IdleSweeps
	time.Sleep(50 * time.Millisecond)
	if after := tb.Stats().IdleSweeps; after != before {
		t.Fatalf("idle sweeps grew %d → %d with no traffic", before, after)
	}
}

// TestStatsAdvanceWhileBusy: a server that never parks still adds its
// message count to Stats every statsFlushMsgs messages, so a scrape taken
// under sustained load sees cphash_table_messages_total move.
func TestStatsAdvanceWhileBusy(t *testing.T) {
	ps := parkAfterSweeps
	parkAfterSweeps = math.MaxInt // flushing on park or exit would hide the bound
	t.Cleanup(func() { parkAfterSweeps = ps })
	tb := newTestTable(t, Config{Partitions: 1})
	c := tb.MustClient(0)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		defer c.Close()
		val := []byte("busy")
		ops := make([]*Op, 64)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := range ops {
				ops[i] = c.InsertAsync(Key(i), val)
			}
			c.WaitAll()
			for _, o := range ops {
				c.Release(o)
			}
		}
	}()
	defer func() { close(stop); <-done }()
	waitFor(t, "a busy server's first flush", func() bool { return tb.Stats().Messages >= statsFlushMsgs })
	first := tb.Stats().Messages
	waitFor(t, "a busy server's next flush", func() bool { return tb.Stats().Messages > first })
}
