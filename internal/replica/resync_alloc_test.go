package replica_test

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cphash/internal/lockhash"
	"cphash/internal/persist"
	"cphash/internal/replica"
)

// stallApplier blocks its first Apply after stall is set until release
// is closed: a follower whose applier stops draining.
type stallApplier struct {
	inner   replica.Applier
	stall   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (a *stallApplier) Apply(op persist.Op, key uint64, exp int64, ver uint64, val []byte) error {
	if a.stall.CompareAndSwap(true, false) {
		close(a.entered)
		<-a.release
	}
	return a.inner.Apply(op, key, exp, ver, val)
}

func (a *stallApplier) Flush() error { return a.inner.Flush() }

// siteAllocs is what one call stack allocated.
type siteAllocs struct{ n, bytes int64 }

// allocSites returns the allocations of every sampled call stack but its
// own.
func allocSites() map[string]siteAllocs {
	runtime.GC()
	runtime.GC() // the profile publishes the cycle before the last
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	sites := make(map[string]siteAllocs, n)
	for _, r := range recs[:n] {
		var b strings.Builder
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			fmt.Fprintf(&b, "%s:%d\n", f.Function, f.Line)
			if !more {
				break
			}
		}
		if stack := b.String(); !strings.Contains(stack, "allocSites") {
			s := sites[stack]
			sites[stack] = siteAllocs{s.n + r.AllocObjects, s.bytes + r.AllocBytes}
		}
	}
	return sites
}

// resyncPhase names the part of a resync or catch-up a stack belongs
// to, by the outermost replication frame on it.
func resyncPhase(stack string) string {
	switch {
	case strings.Contains(stack, "replica.(*Follower).apply") || strings.Contains(stack, "Applier"):
		return "follower applier"
	case strings.Contains(stack, "replica.(*peer).initialSync"):
		return "source replay (roll + durable replay + framing)"
	case strings.Contains(stack, "replica.(*peer).catchUp"):
		return "source catch-up (flush + segment read)"
	case strings.Contains(stack, "replica.(*Source)") || strings.Contains(stack, "replica.(*peer)"):
		return "source session (accept, hello, register, ack reader)"
	case strings.Contains(stack, "replica.(*Follower).session"):
		return "follower session set-up (hello, buffers, frame decode)"
	case strings.Contains(stack, "replica.(*Follower).run"):
		return "follower reconnect (dial)"
	default:
		return "other (runtime, timers, this test)"
	}
}

// TestResyncAllocationSites forces exactly one resync — a follower kept
// away while the primary writes past a 512-record backlog (the backlog
// of TestHotPathAllocCeiling/replicated) and a snapshot truncates the
// segment its position lies in, so that the segment files cannot catch
// it up — and attributes the allocations made between its return and
// the completed resync to the part of the replication stack that made
// them.
func TestResyncAllocationSites(t *testing.T) {
	profileRecovery(t, true)
}

// TestCatchUpAllocationSites is its twin without the snapshot: the
// follower resumes, and the records the backlog no longer holds are read
// back from the segment files.
func TestCatchUpAllocationSites(t *testing.T) {
	profileRecovery(t, false)
}

func profileRecovery(t *testing.T, truncate bool) {
	if testing.Short() {
		t.Skip("profiles every allocation")
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	hb := 10 * time.Millisecond
	primary := startNode(t, &replica.SourceConfig{Heartbeat: hb, BacklogRecords: 512})
	val := make([]byte, 64)
	const keys = 1 << 14
	for k := uint64(0); k < keys; k++ {
		primary.table.Put(k, val)
	}
	proxy := newBlipProxy(t, primary.src.Addr())
	// As in the allocation gate, the follower's table has no pipeline of
	// its own.
	ftable := lockhash.MustNew(lockhash.Config{Partitions: 2, CapacityBytes: 8 << 20})
	fl, err := replica.StartFollower(replica.FollowerConfig{
		Source:      proxy.addr(),
		Name:        "away",
		Apply:       replica.NewLockHashApplier(ftable),
		Backoff:     10 * time.Millisecond,
		ReadTimeout: 20 * hb,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.Close)
	primary.pipe.Barrier()
	waitAcked(t, primary.src, 10*time.Second)

	// Cut the follower off, then write past the backlog.
	proxy.setDown(true)
	if !fl.WaitDisconnected(5 * time.Second) {
		t.Fatal("follower still connected through a down proxy")
	}
	for k := uint64(1); k <= 2000; k++ {
		primary.table.Put(k, val)
	}
	primary.pipe.Barrier()
	if truncate {
		if err := primary.pipe.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}

	before := allocSites()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	src0 := primary.src.Stats()
	proxy.setDown(false)
	for deadline := time.Now().Add(10 * time.Second); fl.Status().Syncs+fl.Status().Resumes < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("follower did not come back: %+v", fl.Status())
		}
		time.Sleep(time.Millisecond)
	}
	waitAcked(t, primary.src, 10*time.Second)
	runtime.ReadMemStats(&m1)
	after := allocSites()
	what := "catch-up"
	st, src := fl.Status(), primary.src.Stats()
	if truncate {
		what = "resync"
		if st.Syncs != 2 || st.Resumes != 0 || src.Syncs-src0.Syncs != 1 {
			t.Fatalf("want exactly one resync, follower %+v, source %+v", st, src)
		}
	} else if st.Syncs != 1 || st.Resumes != 1 || src.CatchUps-src0.CatchUps != 1 {
		t.Fatalf("want exactly one resume that caught up from the files, follower %+v, source %+v", st, src)
	}

	phases := map[string]siteAllocs{}
	type site struct {
		stack string
		siteAllocs
	}
	var sites []site
	var total siteAllocs
	for stack, a := range after {
		d := siteAllocs{a.n - before[stack].n, a.bytes - before[stack].bytes}
		if d.n <= 0 {
			continue
		}
		p := phases[resyncPhase(stack)]
		phases[resyncPhase(stack)] = siteAllocs{p.n + d.n, p.bytes + d.bytes}
		sites = append(sites, site{stack, d})
		total = siteAllocs{total.n + d.n, total.bytes + d.bytes}
	}
	t.Logf("one %s of a %d-key table: %d allocations, %d KiB profiled (%d allocations by MemStats)",
		what, keys, total.n, total.bytes>>10, m1.Mallocs-m0.Mallocs)
	names := make([]string, 0, len(phases))
	for name := range phases {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return phases[names[i]].n > phases[names[j]].n })
	for _, name := range names {
		t.Logf("  %5d  %6d KiB  %s", phases[name].n, phases[name].bytes>>10, name)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].n > sites[j].n })
	for _, s := range sites[:min(12, len(sites))] {
		lines := strings.SplitN(s.stack, "\n", 6)
		t.Logf("  %5d  %6d KiB  %s", s.n, s.bytes>>10, strings.Join(lines[:len(lines)-1], " < "))
	}
}
