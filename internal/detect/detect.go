// Package detect is the failure detector that closes the replication
// loop: it turns "a node stopped answering" into an automatic
// rebalance.Migrator.Promote, demoting the manual POST /promote to an
// operator override.
//
// The shape is the autoscaler control loop (observe → threshold → act,
// with cooldowns and a flap guard), deliberately boring:
//
//   - observe: each Tick probes every watched target (a TCP dial, a
//     peer_up scrape — the Probe callback decides).
//   - threshold: a target must be continuously down for DownAfter before
//     it is a candidate; one missed probe is a blip, not a death.
//   - act: at most one promotion per Cooldown across the whole detector,
//     because each Act reshapes the cluster and the next decision must
//     observe the reshaped cluster, not the one that died.
//   - flap guard: a target that changed state FlapMax times inside
//     FlapWindow is suppressed — a flapping link needs an operator, not
//     a promotion storm.
//
// The loop is Tick-driven with an injected clock, so tests script the
// schedule deterministically; Start wires Tick to a wall-clock ticker
// for production use.
package detect

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cphash/internal/obs"
)

// Config parameterizes the detector.
type Config struct {
	// Probe reports whether a target is currently healthy. It runs on
	// the Tick goroutine; keep it bounded (a dial with a short timeout,
	// a scrape of an in-process gauge).
	Probe func(target string) bool
	// Act fires the failover for a confirmed-dead target (conventionally
	// Migrator.Promote plus a mesh rewire). A successful Act removes the
	// target from the watch set — it has left the cluster; a failed one
	// leaves it watched for a retry after Cooldown.
	Act func(target string) error
	// Interval is the probe cadence for Start's ticker (default 500ms).
	Interval time.Duration
	// DownAfter is how long a target must be continuously down before
	// Act fires (default 3s).
	DownAfter time.Duration
	// Cooldown is the minimum gap between consecutive Acts, successful
	// or not (default 10s).
	Cooldown time.Duration
	// FlapWindow and FlapMax bound acceptable instability: a target with
	// FlapMax or more up/down transitions inside FlapWindow is never
	// acted on until it steadies (defaults 60s, 6).
	FlapWindow time.Duration
	FlapMax    int
	// Clock supplies "now" (nil = wall clock); tests inject a fake.
	Clock func() time.Time
}

func (c *Config) setDefaults() error {
	if c.Probe == nil {
		return fmt.Errorf("detect: Config.Probe is required")
	}
	if c.Act == nil {
		return fmt.Errorf("detect: Config.Act is required")
	}
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 3 * time.Second
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 10 * time.Second
	}
	if c.FlapWindow <= 0 {
		c.FlapWindow = time.Minute
	}
	if c.FlapMax <= 0 {
		c.FlapMax = 6
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return nil
}

// target is the per-member health ledger.
type target struct {
	up          bool
	everProbed  bool
	downSince   time.Time
	transitions []time.Time // up/down edges, pruned to FlapWindow
}

// TargetStatus snapshots one watched member for /detect and tests.
type TargetStatus struct {
	Target      string `json:"target"`
	Up          bool   `json:"up"`
	DownForMS   int64  `json:"downForMs"` // 0 when up
	Transitions int    `json:"transitionsInWindow"`
	Suppressed  bool   `json:"suppressed"` // flap guard engaged
}

// Detector watches a set of targets and fires Act on confirmed deaths.
type Detector struct {
	cfg Config

	mu      sync.Mutex
	targets map[string]*target
	lastAct time.Time
	acting  bool // an Act is in flight on some Tick goroutine

	stop chan struct{}
	wg   sync.WaitGroup

	probes      atomic.Int64
	acts        atomic.Int64
	actErrors   atomic.Int64
	suppressals atomic.Int64
}

// New validates cfg and builds a detector with an empty watch set.
// Nothing runs until Start (or a caller-driven Tick).
func New(cfg Config) (*Detector, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	return &Detector{
		cfg:     cfg,
		targets: map[string]*target{},
		stop:    make(chan struct{}),
	}, nil
}

// SetTargets reconciles the watch set: members not yet watched are
// added, watched names not in members are forgotten, survivors keep
// their history. The mesh calls it after every rewire.
func (d *Detector) SetTargets(members []string) {
	want := make(map[string]struct{}, len(members))
	for _, m := range members {
		want[m] = struct{}{}
	}
	d.mu.Lock()
	for name := range d.targets {
		if _, ok := want[name]; !ok {
			delete(d.targets, name)
		}
	}
	for name := range want {
		if _, ok := d.targets[name]; !ok {
			d.targets[name] = &target{}
		}
	}
	d.mu.Unlock()
}

// Start runs the Tick loop on Interval until Close.
func (d *Detector) Start() {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		ticker := time.NewTicker(d.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-ticker.C:
				d.Tick()
			}
		}
	}()
}

// Close stops the Start loop and waits for it (a Tick in flight,
// including its Act, completes first). Idempotent-unsafe: call once.
func (d *Detector) Close() {
	close(d.stop)
	d.wg.Wait()
}

// Tick runs one observe → threshold → act pass. Exported so tests (and
// callers with their own scheduling) can drive the detector against a
// fake clock. Probes run outside the lock; at most one Act runs per
// pass, also outside the lock — the cluster it reshapes is re-observed
// by the next pass.
func (d *Detector) Tick() {
	d.mu.Lock()
	names := make([]string, 0, len(d.targets))
	for name := range d.targets {
		names = append(names, name)
	}
	d.mu.Unlock()
	sort.Strings(names) // deterministic probe and candidate order

	var candidate string
	for _, name := range names {
		up := d.cfg.Probe(name)
		d.probes.Add(1)
		// Each probe can block for its full dial timeout, so "now" is
		// re-read after it returns: stamping every target with a single
		// pre-loop timestamp would backdate later targets' transitions by
		// the accumulated probe time, satisfying DownAfter early.
		now := d.cfg.Clock()

		d.mu.Lock()
		tg, ok := d.targets[name]
		if !ok { // forgotten mid-pass
			d.mu.Unlock()
			continue
		}
		if tg.everProbed && up != tg.up {
			tg.transitions = append(tg.transitions, now)
		}
		if !up && (tg.up || !tg.everProbed) {
			tg.downSince = now
		}
		tg.up = up
		tg.everProbed = true
		cut := now.Add(-d.cfg.FlapWindow)
		for len(tg.transitions) > 0 && tg.transitions[0].Before(cut) {
			tg.transitions = tg.transitions[1:]
		}
		if !up && candidate == "" && now.Sub(tg.downSince) >= d.cfg.DownAfter {
			if len(tg.transitions) >= d.cfg.FlapMax {
				d.suppressals.Add(1)
			} else if !d.acting && now.Sub(d.lastAct) >= d.cfg.Cooldown {
				candidate = name
				d.acting = true
				d.lastAct = now
			}
		}
		d.mu.Unlock()
	}

	if candidate == "" {
		return
	}
	err := d.cfg.Act(candidate)
	d.mu.Lock()
	d.acting = false
	if err == nil {
		// The target has been failed over out of the cluster; stop
		// probing the corpse. On error it stays watched and the cooldown
		// paces the retry.
		delete(d.targets, candidate)
	}
	d.mu.Unlock()
	if err != nil {
		d.actErrors.Add(1)
	} else {
		d.acts.Add(1)
	}
}

// Status snapshots the watch set, sorted by target.
func (d *Detector) Status() []TargetStatus {
	now := d.cfg.Clock()
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]TargetStatus, 0, len(d.targets))
	for name, tg := range d.targets {
		st := TargetStatus{
			Target:      name,
			Up:          tg.up || !tg.everProbed,
			Transitions: len(tg.transitions),
			Suppressed:  len(tg.transitions) >= d.cfg.FlapMax,
		}
		if !st.Up {
			st.DownForMS = now.Sub(tg.downSince).Milliseconds()
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Target < out[j].Target })
	return out
}

// Collect emits the detector's counters and per-target health.
func (d *Detector) Collect(e *obs.Expo, labels string) {
	e.Counter("cphash_detect_probes_total", "Health probes run.", labels, d.probes.Load())
	e.Counter("cphash_detect_promotions_total", "Automatic failovers fired.", labels, d.acts.Load())
	e.Counter("cphash_detect_act_errors_total", "Failovers that returned an error.", labels, d.actErrors.Load())
	e.Counter("cphash_detect_suppressed_total", "Act decisions vetoed by the flap guard.", labels, d.suppressals.Load())
	for _, st := range d.Status() {
		tl := obs.WithLabel(labels, "target", st.Target)
		var up float64
		if st.Up {
			up = 1
		}
		e.Gauge("cphash_detect_target_up", "Whether the watched member answered its last probe (1 = yes).", tl, up)
		e.Gauge("cphash_detect_target_down_ms", "How long the member has been continuously down.", tl, float64(st.DownForMS))
	}
}
