package detect

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cphash/internal/obs"
)

// fakeClock is the deterministic schedule driver: tests advance it and
// call Tick by hand, so every threshold is exercised at exact instants.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// scriptedHealth is a probe whose answers the test flips per target.
type scriptedHealth struct {
	mu   sync.Mutex
	down map[string]bool
}

func newScriptedHealth() *scriptedHealth { return &scriptedHealth{down: map[string]bool{}} }

func (h *scriptedHealth) probe(target string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.down[target]
}

func (h *scriptedHealth) set(target string, down bool) {
	h.mu.Lock()
	h.down[target] = down
	h.mu.Unlock()
}

type actLog struct {
	mu   sync.Mutex
	acts []string
	err  error
}

func (l *actLog) act(target string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	l.acts = append(l.acts, target)
	return nil
}

func (l *actLog) list() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.acts...)
}

func newTestDetector(t *testing.T, clk *fakeClock, h *scriptedHealth, log *actLog) *Detector {
	t.Helper()
	d, err := New(Config{
		Probe:      h.probe,
		Act:        log.act,
		DownAfter:  3 * time.Second,
		Cooldown:   10 * time.Second,
		FlapWindow: time.Minute,
		FlapMax:    4,
		Clock:      clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestActFiresAfterDownAfter pins the threshold: no act while the
// outage is younger than DownAfter, exactly one act once it is not, and
// the dead target leaves the watch set.
func TestActFiresAfterDownAfter(t *testing.T) {
	clk, h, log := newFakeClock(), newScriptedHealth(), &actLog{}
	d := newTestDetector(t, clk, h, log)
	d.SetTargets([]string{"a", "b"})

	d.Tick() // both up
	h.set("a", true)
	clk.advance(time.Second)
	d.Tick() // first failed probe: the down clock starts HERE
	for i := 0; i < 3; i++ {
		clk.advance(time.Second)
		d.Tick()
		if i < 2 && len(log.list()) != 0 {
			t.Fatalf("acted %v before DownAfter elapsed", log.list())
		}
	}
	if got := log.list(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("acts = %v, want [a]", got)
	}
	st := d.Status()
	if len(st) != 1 || st[0].Target != "b" {
		t.Fatalf("watch set after act = %+v, want only b", st)
	}
}

// TestBlipDoesNotFire pins that a probe failure shorter than DownAfter
// never acts: the down clock restarts when the target recovers.
func TestBlipDoesNotFire(t *testing.T) {
	clk, h, log := newFakeClock(), newScriptedHealth(), &actLog{}
	d := newTestDetector(t, clk, h, log)
	d.SetTargets([]string{"a"})

	d.Tick()
	for cycle := 0; cycle < 3; cycle++ {
		h.set("a", true)
		clk.advance(2 * time.Second) // < DownAfter
		d.Tick()
		h.set("a", false)
		clk.advance(20 * time.Second)
		d.Tick()
	}
	if got := log.list(); len(got) != 0 {
		t.Fatalf("acted on blips: %v", got)
	}
	// Let the flap window forget the blips, then a fresh continuous
	// outage still fires.
	clk.advance(2 * time.Minute)
	d.Tick()
	h.set("a", true)
	clk.advance(time.Second)
	d.Tick() // down clock starts
	clk.advance(3 * time.Second)
	d.Tick()
	if got := log.list(); len(got) != 1 {
		t.Fatalf("acts = %v, want one", got)
	}
}

// TestCooldownSerializesActs pins the global cooldown: two targets dying
// together fail over one per Cooldown, not both in one pass.
func TestCooldownSerializesActs(t *testing.T) {
	clk, h, log := newFakeClock(), newScriptedHealth(), &actLog{}
	d := newTestDetector(t, clk, h, log)
	d.SetTargets([]string{"a", "b"})

	d.Tick()
	h.set("a", true)
	h.set("b", true)
	clk.advance(time.Second)
	d.Tick() // both down clocks start
	clk.advance(3 * time.Second)
	d.Tick()
	if got := log.list(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("acts = %v, want [a] (deterministic order, one per pass)", got)
	}
	clk.advance(5 * time.Second) // inside cooldown
	d.Tick()
	if got := log.list(); len(got) != 1 {
		t.Fatalf("acted inside cooldown: %v", got)
	}
	clk.advance(5 * time.Second) // cooldown over
	d.Tick()
	if got := log.list(); len(got) != 2 || got[1] != "b" {
		t.Fatalf("acts = %v, want [a b]", got)
	}
}

// TestFlapGuardSuppresses pins the flap guard: a target bouncing more
// than FlapMax times inside FlapWindow is never acted on, then fires
// normally once the window forgets the instability.
func TestFlapGuardSuppresses(t *testing.T) {
	clk, h, log := newFakeClock(), newScriptedHealth(), &actLog{}
	d := newTestDetector(t, clk, h, log)
	d.SetTargets([]string{"a"})

	d.Tick()
	// 4 transitions (FlapMax) inside the window: down, up, down, up.
	for i := 0; i < 2; i++ {
		h.set("a", true)
		clk.advance(time.Second)
		d.Tick()
		h.set("a", false)
		clk.advance(time.Second)
		d.Tick()
	}
	h.set("a", true)
	clk.advance(time.Second)
	d.Tick()                      // down clock starts
	clk.advance(10 * time.Second) // well past DownAfter, still in window
	d.Tick()
	if got := log.list(); len(got) != 0 {
		t.Fatalf("acted on a flapping target: %v", got)
	}
	if st := d.Status(); !st[0].Suppressed {
		t.Fatalf("status not suppressed: %+v", st)
	}
	if d.suppressals.Load() == 0 {
		t.Fatal("suppression not counted")
	}
	// The window slides past the flapping; the ongoing outage then acts.
	clk.advance(time.Minute)
	d.Tick()
	if got := log.list(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("acts = %v, want [a] after the flap window slid", got)
	}
}

// TestActErrorRetriesAfterCooldown pins the failure path: a failed Act
// keeps the target watched and retries one cooldown later.
func TestActErrorRetriesAfterCooldown(t *testing.T) {
	clk, h, log := newFakeClock(), newScriptedHealth(), &actLog{}
	log.err = fmt.Errorf("promotion raced a join")
	d := newTestDetector(t, clk, h, log)
	d.SetTargets([]string{"a"})

	d.Tick()
	h.set("a", true)
	clk.advance(time.Second)
	d.Tick() // down clock starts
	clk.advance(3 * time.Second)
	d.Tick() // act fails
	if d.actErrors.Load() != 1 {
		t.Fatalf("actErrors = %d, want 1", d.actErrors.Load())
	}
	if len(d.Status()) != 1 {
		t.Fatal("failed act dropped the target")
	}
	log.mu.Lock()
	log.err = nil
	log.mu.Unlock()
	clk.advance(time.Second)
	d.Tick() // still cooling down
	if got := log.list(); len(got) != 0 {
		t.Fatalf("retried inside cooldown: %v", got)
	}
	clk.advance(10 * time.Second)
	d.Tick()
	if got := log.list(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("acts = %v, want [a] on retry", got)
	}
}

// TestSetTargetsReconciles pins the rewire contract: survivors keep
// their down history across a SetTargets, departures stop being probed.
func TestSetTargetsReconciles(t *testing.T) {
	clk, h, log := newFakeClock(), newScriptedHealth(), &actLog{}
	d := newTestDetector(t, clk, h, log)
	d.SetTargets([]string{"a", "b", "c"})

	d.Tick()
	h.set("a", true)
	clk.advance(time.Second)
	d.Tick() // down clock starts
	clk.advance(2 * time.Second)
	d.Tick() // a down for 2s — not yet actionable
	d.SetTargets([]string{"a", "b"})
	clk.advance(time.Second)
	d.Tick() // a down for 3s continuously across the reconcile
	if got := log.list(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("acts = %v, want [a]: down history lost in SetTargets", got)
	}
	st := d.Status()
	if len(st) != 1 || st[0].Target != "b" {
		t.Fatalf("watch set = %+v, want only b", st)
	}
}

// TestCollectEmitsSeries smoke-tests the exposition names the dashboards
// and the README document.
func TestCollectEmitsSeries(t *testing.T) {
	clk, h, log := newFakeClock(), newScriptedHealth(), &actLog{}
	d := newTestDetector(t, clk, h, log)
	d.SetTargets([]string{"n1"})
	d.Tick()
	h.set("n1", true)
	clk.advance(time.Second)
	d.Tick()

	e := obs.NewExpo()
	d.Collect(e, obs.Labels("node", "admin"))
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`cphash_detect_probes_total{node="admin"} 2`,
		`cphash_detect_target_up{node="admin",target="n1"} 0`,
		"cphash_detect_target_down_ms",
		"cphash_detect_promotions_total",
		"cphash_detect_suppressed_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("scrape missing %q:\n%s", want, text)
		}
	}
}

// TestStartTicksOnWallClock smoke-tests the production wiring: a real
// ticker drives Tick, and Close stops it cleanly.
func TestStartTicksOnWallClock(t *testing.T) {
	h, log := newScriptedHealth(), &actLog{}
	h.set("a", true)
	d, err := New(Config{
		Probe:     h.probe,
		Act:       log.act,
		Interval:  2 * time.Millisecond,
		DownAfter: 10 * time.Millisecond,
		Cooldown:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SetTargets([]string{"a"})
	d.Start()
	deadline := time.Now().Add(5 * time.Second)
	for len(log.list()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("wall-clock loop never acted")
		}
		time.Sleep(time.Millisecond)
	}
	d.Close()
	if got := log.list(); got[0] != "a" {
		t.Fatalf("acts = %v", got)
	}
}
