package persist

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cphash/internal/lockhash"
	"cphash/internal/partition"
)

// TestBarrierUnderFrequentRolls is the regression test for a lost
// wakeup between Barrier and the persister sweep. A Barrier arms its
// stream's sync request for records it saw published; if those records
// went into the ring after the in-flight sweep had already passed their
// appender, the request is consumed at the end of that sweep — and when
// the sweep ends on a freshly rolled (empty) segment, syncNow used to
// return early without broadcasting. The Barrier re-arms on every
// wakeup, so that silent consumption left it parked in cond.Wait
// forever. Tiny segments make post-roll empty-segment syncs frequent
// enough that barrier-heavy traffic deadlocked before the fix (syncNow
// now publishes watermarks and broadcasts even when there is nothing new
// to fsync). With the early return put back, the first iteration wedges
// in every run on two CPUs; the second, with another stream count, is
// margin.
func TestBarrierUnderFrequentRolls(t *testing.T) {
	const iters = 2
	val := make([]byte, 64)
	for iter := 0; iter < iters; iter++ {
		rng := rand.New(rand.NewSource(int64(iter)))
		clk := &fakeClock{now: 1000000}
		p, err := Open(Config{
			Dir:          t.TempDir(),
			Policy:       SyncInterval,
			Streams:      1 + rng.Intn(3),
			MaxSegment:   512,
			RingDepth:    16,
			Clock:        clk.Now,
			SyncInterval: time.Hour, // durability only via explicit barriers
		})
		if err != nil {
			t.Fatal(err)
		}
		table, err := lockhash.New(lockhash.Config{
			Partitions:    4,
			CapacityBytes: 4 << 20,
			Clock:         clk.Now,
			Seed:          uint64(iter) + 1,
			Sink:          func(i int) partition.ChangeSink { return p.Appender(i) },
		})
		if err != nil {
			t.Fatal(err)
		}
		p.SetSource(LockHashSource(table))
		if _, err := RestoreLockHash(p, table); err != nil {
			t.Fatal(err)
		}
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			n := 1 + rng.Intn(len(val))
			table.Put(uint64(rng.Intn(96)), val[:n])
			if rng.Intn(4) == 0 {
				barrierOrDie(t, p, iter, i)
			}
		}
		p.Kill()
	}
}

// barrierOrDie runs one Barrier with a watchdog that dumps the internal
// watermarks if it wedges, so a regression fails with the stuck state
// instead of a bare test timeout.
func barrierOrDie(t *testing.T, p *Pipeline, iter, op int) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			msg := fmt.Sprintf("Barrier wedged (iter=%d op=%d):\n", iter, op)
			for ai, a := range p.appenders() {
				msg += fmt.Sprintf("  app%d: published=%d durable=%d wseq=%d ringLen=%d stream=%d\n",
					ai, a.published.Load(), a.durable.Load(), a.wseq, a.pub.Len(), a.stream.id)
			}
			for si, s := range p.streams {
				msg += fmt.Sprintf("  stream%d: written=%d synced=%d syncReq=%v parked=%v\n",
					si, s.written.Load(), s.synced.Load(), s.syncReq.Load(), s.parked.Load())
			}
			panic(msg)
		}
	}()
	p.Barrier()
	close(done)
}
