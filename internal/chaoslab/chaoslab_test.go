// Property tests over the fault matrix: every scenario must end with
// zero acked-write loss and a bounded time-to-recovery, under -race.
// These are the tests the ISSUE's hardening contract points at — the
// same scenarios cpbench measures, run at CI-smoke durations.

package chaoslab

import (
	"testing"
	"time"

	"cphash/internal/chaos"
)

// maxTTR bounds recovery for every scenario at test scale. Failover
// needs DownAfter + promote + drain; heals need reconnect + resync.
const maxTTR = 8 * time.Second

func shortRC(t *testing.T, seed int64) RunConfig {
	t.Helper()
	return RunConfig{
		Seed:          seed,
		Writers:       2,
		KeysPerWriter: 150,
		Warmup:        150 * time.Millisecond,
		FaultFor:      600 * time.Millisecond,
		Settle:        700 * time.Millisecond,
		Dir:           t.TempDir(),
	}
}

// TestScenarioMatrix runs every cell of the fault matrix and asserts
// the scenario's own contract (promotion count, zero loss — both
// enforced inside Run) plus a global recovery bound.
func TestScenarioMatrix(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res, err := Run(sc, shortRC(t, 42))
			if err != nil {
				t.Fatalf("%s: %v (result %+v)", sc.Name, err, res)
			}
			if res.Ops == 0 {
				t.Fatalf("%s: no operation ever succeeded", sc.Name)
			}
			if ttr := res.TTR(); ttr > maxTTR {
				t.Fatalf("%s: time-to-recovery %v exceeds %v", sc.Name, ttr, maxTTR)
			}
			if sc.Name == "kill-recover" && res.TTR() == 0 {
				t.Fatal("kill-recover: a primary died under live traffic yet no client ever erred")
			}
			t.Logf("%s: ops=%d errs=%d qps=%.0f p99=%v p999=%v ttr=%v promotions=%d",
				sc.Name, res.Ops, res.Errors, res.QPS,
				time.Duration(res.P99Ns), time.Duration(res.P999Ns), res.TTR(), res.Promotions)
		})
	}
}

// TestAsymmetricPartitionNoPrematureFailover is the satellite the ISSUE
// names: the detector's probe path is partitioned from the primary
// while clients still reach it. The peer_up witness (a live outgoing
// replication link on a surviving source vouches for the member) must
// hold promotion back for the whole outage — a premature promotion here
// would flip ownership away from the only member holding the newest
// acked writes.
func TestAsymmetricPartitionNoPrematureFailover(t *testing.T) {
	c, err := New(Config{
		BaseDir:      t.TempDir(),
		Seed:         7,
		Detector:     true,
		WitnessProbe: true,
		DownAfter:    150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	victim := c.VictimFor()
	rc := shortRC(t, 7)
	w := startWorkload(c, rc)
	time.Sleep(rc.Warmup)

	// One-way: only the detector's dials to the victim die. The outage
	// lasts many multiples of DownAfter — without the witness this is a
	// guaranteed (and wrong) promotion.
	if err := c.Dir.SetRule(chaos.Rule{
		Name:      "asym",
		Src:       DetectorName,
		Dst:       victim,
		Partition: true,
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(6 * 150 * time.Millisecond)
	c.Dir.RemoveRule("asym")
	time.Sleep(rc.Settle)
	w.halt()

	if n := c.Promotions(); n != 0 {
		t.Fatalf("asymmetric partition triggered %d premature promotions", n)
	}
	if !c.Client().Ring().Contains(victim) {
		t.Fatal("victim fell out of the ring during a one-way partition")
	}
	for _, ts := range c.Detector().Status() {
		if ts.Target == victim && !ts.Up {
			t.Fatalf("witness failed to vouch for the reachable primary: %+v", ts)
		}
	}
	// Clients never lost the primary, so the fault must be invisible to
	// acked writes — and with no promotion there is no window to lose
	// them in.
	if lost, stale := w.verify(); lost+stale > 0 {
		t.Fatalf("acked-write loss under asymmetric partition: %d lost, %d stale", lost, stale)
	}
	if w.ops.Load() == 0 {
		t.Fatal("no operation succeeded during the asymmetric partition")
	}
}

// TestFlapGuardSuppressesPromotion exercises the other half of the
// satellite: the probe path flaps (windows shorter than DownAfter), the
// detector records the transitions, and the flap guard marks the target
// suppressed instead of promoting — acked writes survive untouched.
func TestFlapGuardSuppressesPromotion(t *testing.T) {
	c, err := New(Config{
		BaseDir:   t.TempDir(),
		Seed:      11,
		Detector:  true, // bare dial probe: every flap window is visible
		DownAfter: 500 * time.Millisecond,
		FlapMax:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	victim := c.VictimFor()
	rc := shortRC(t, 11)
	w := startWorkload(c, rc)
	time.Sleep(rc.Warmup)

	// Detector-only flap chain: 150ms outages every 300ms, scheduled up
	// front so the profile is deterministic from the Director's clock.
	const onFor, period = 150 * time.Millisecond, 300 * time.Millisecond
	for i := 0; i < 4; i++ {
		if err := c.Dir.SetRule(chaos.Rule{
			Name:      "flap-" + string(rune('a'+i)),
			Src:       DetectorName,
			Dst:       victim,
			Partition: true,
			At:        time.Duration(i) * period,
			Duration:  onFor,
		}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(4*period + 200*time.Millisecond)
	c.Dir.Clear()
	time.Sleep(rc.Settle)
	w.halt()

	if n := c.Promotions(); n != 0 {
		t.Fatalf("flapping probe path triggered %d promotions", n)
	}
	var saw bool
	for _, ts := range c.Detector().Status() {
		if ts.Target != victim {
			continue
		}
		saw = true
		if ts.Transitions == 0 {
			t.Fatalf("detector never observed the flapping: %+v", ts)
		}
		if !ts.Suppressed {
			t.Fatalf("flap guard not engaged after %d transitions: %+v", ts.Transitions, ts)
		}
	}
	if !saw {
		t.Fatalf("victim missing from detector status: %+v", c.Detector().Status())
	}
	if errs := w.errs.Load(); errs != 0 {
		t.Fatalf("detector-only flap leaked %d errors to clients", errs)
	}
	if lost, stale := w.verify(); lost+stale > 0 {
		t.Fatalf("acked-write loss under flapping: %d lost, %d stale", lost, stale)
	}
}
