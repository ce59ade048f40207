package chaoslab

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"cphash/internal/chaos"
	"cphash/internal/obs"
)

// RunConfig sizes one scenario run. Zero values take the short-mode
// defaults used by the CI smoke job; cpbench passes larger windows.
type RunConfig struct {
	Seed          int64
	Writers       int
	KeysPerWriter int
	Warmup        time.Duration // steady traffic before the fault
	FaultFor      time.Duration // how long the fault holds
	Settle        time.Duration // post-heal traffic (must exceed recovery)
	Dir           string        // data root (required)
}

func (rc *RunConfig) setDefaults() {
	if rc.Seed == 0 {
		rc.Seed = 1
	}
	if rc.Writers <= 0 {
		rc.Writers = 3
	}
	if rc.KeysPerWriter <= 0 {
		rc.KeysPerWriter = 200
	}
	if rc.Warmup <= 0 {
		rc.Warmup = 200 * time.Millisecond
	}
	if rc.FaultFor <= 0 {
		rc.FaultFor = 600 * time.Millisecond
	}
	if rc.Settle <= 0 {
		rc.Settle = 800 * time.Millisecond
	}
}

// Signal names what "recovered" means for a scenario's TTR.
const (
	// SignalClient: recovery is the last client-visible error — TTR is
	// measured from the heal (or the fault, when nothing heals and
	// failover itself is the recovery) to the final failed op.
	SignalClient = "client"
	// SignalMesh: the fault never reaches clients; recovery is the
	// replication mesh reporting every peer synced again after heal.
	SignalMesh = "mesh"
)

// Scenario is one cell of the fault matrix.
type Scenario struct {
	Name string
	// Lab adjusts the cluster config (detector on/off, probe mode).
	Lab func(*Config)
	// Inject installs the fault against the chosen victim. faultFor is
	// the window the fault must cover (flap chains schedule inside it).
	Inject func(c *Cluster, victim string, faultFor time.Duration) error
	// Heal lifts the fault; nil when the fault is permanent (a kill)
	// and recovery means failover, not repair.
	Heal func(c *Cluster, victim string)
	// Signal selects the TTR definition (SignalClient or SignalMesh).
	Signal string
	// WantPromotions is the exact failover count the scenario must end
	// with (-1 to skip the check).
	WantPromotions int64
}

// Result is one scenario measurement — the row cpbench -experiment
// faults records per scenario. Latency quantiles are obs.Hist bucket
// upper edges, at most 12.5% above the true value.
type Result struct {
	Scenario   string  `json:"scenario"`
	Seed       int64   `json:"seed"`
	Ops        int64   `json:"ops"`
	Errors     int64   `json:"errors"`
	QPS        float64 `json:"qps"`
	P50Ns      int64   `json:"p50_ns"`
	P99Ns      int64   `json:"p99_ns"`
	P999Ns     int64   `json:"p999_ns"`
	TTRNs      int64   `json:"ttr_ns"`
	Promotions int64   `json:"promotions"`
	Lost       int     `json:"lost_writes"`
	Stale      int     `json:"stale_writes"`
	WallNs     int64   `json:"wall_ns"`
}

// TTR returns the time-to-recovery as a duration.
func (r Result) TTR() time.Duration { return time.Duration(r.TTRNs) }

// workload drives read-back-confirmed writers against the cluster, the
// same acked-write discipline as the promotion property tests: a write
// counts as acked only once its read-back returns the exact value.
type workload struct {
	c      *Cluster
	states []keyState
	lat    obs.Hist // every writer's op latency, ns

	ops, errs atomic.Int64
	lastErrNs atomic.Int64

	stop atomic.Bool
	wg   sync.WaitGroup
}

type keyState struct {
	confirmed atomic.Uint64 // highest version whose read-back succeeded
	attempted atomic.Uint64 // highest version ever sent
}

func startWorkload(c *Cluster, rc RunConfig) *workload {
	w := &workload{
		c:      c,
		states: make([]keyState, rc.Writers*rc.KeysPerWriter),
	}
	for i := 0; i < rc.Writers; i++ {
		w.wg.Add(1)
		go w.writer(i, rc)
	}
	return w
}

func (w *workload) writer(id int, rc RunConfig) {
	defer w.wg.Done()
	rng := rand.New(rand.NewSource(rc.Seed + int64(id)*7919))
	for !w.stop.Load() {
		k := uint64(id*rc.KeysPerWriter + rng.Intn(rc.KeysPerWriter))
		st := &w.states[k]
		ver := st.attempted.Add(1)
		val := []byte(fmt.Sprintf("%d:%d", k, ver))
		t0 := time.Now()
		err := w.c.Client().Set(k, val)
		w.lat.Record(time.Since(t0).Nanoseconds())
		if err != nil {
			w.errs.Add(1)
			w.lastErrNs.Store(time.Now().UnixNano())
			continue
		}
		w.ops.Add(1)
		// The read-back is where synchronous latency lives (SETs are
		// one-way in the CPHash protocol), so it is measured too.
		t0 = time.Now()
		v, found, gerr := w.c.Client().Get(k)
		w.lat.Record(time.Since(t0).Nanoseconds())
		if gerr != nil {
			w.errs.Add(1)
			w.lastErrNs.Store(time.Now().UnixNano())
			continue
		}
		w.ops.Add(1)
		if found && bytes.Equal(v, val) {
			// Writers never race on a key (disjoint ranges), so the CAS
			// below is just a monotonic store.
			for {
				cur := st.confirmed.Load()
				if ver <= cur || st.confirmed.CompareAndSwap(cur, ver) {
					break
				}
			}
		}
	}
}

func (w *workload) halt() {
	w.stop.Store(true)
	w.wg.Wait()
}

// verify sweeps every key with a confirmed write and counts losses
// (confirmed but gone) and staleness (present but older than
// confirmed). Transient errors get a short retry budget — verification
// runs after recovery, so persistent errors are themselves a failure
// and count as loss.
func (w *workload) verify() (lost, stale int) {
	for k := range w.states {
		confirmed := w.states[k].confirmed.Load()
		if confirmed == 0 {
			continue
		}
		var (
			v     []byte
			found bool
			err   error
		)
		for attempt := 0; attempt < 40; attempt++ {
			v, found, err = w.c.Client().Get(uint64(k))
			if err == nil {
				break
			}
			time.Sleep(25 * time.Millisecond)
		}
		if err != nil || !found {
			lost++
			continue
		}
		var gotKey, gotVer uint64
		if _, serr := fmt.Sscanf(string(v), "%d:%d", &gotKey, &gotVer); serr != nil || gotKey != uint64(k) {
			lost++
			continue
		}
		if gotVer < confirmed {
			stale++
		}
	}
	return lost, stale
}

// Run executes one scenario cell: boot, warm up, inject, hold, heal,
// settle, stop, verify. Deterministic per (scenario, RunConfig.Seed):
// the Director's fault decisions and the writers' key sequences both
// derive from the seed.
func Run(sc Scenario, rc RunConfig) (Result, error) {
	rc.setDefaults()
	if rc.Dir == "" {
		return Result{}, fmt.Errorf("chaoslab: RunConfig.Dir is required")
	}
	cfg := Config{BaseDir: rc.Dir, Seed: rc.Seed}
	if sc.Lab != nil {
		sc.Lab(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	defer c.Close()

	victim := c.VictimFor()
	start := time.Now()
	w := startWorkload(c, rc)
	time.Sleep(rc.Warmup)

	faultAt := time.Now()
	if err := sc.Inject(c, victim, rc.FaultFor); err != nil {
		w.halt()
		return Result{}, fmt.Errorf("inject %s: %w", sc.Name, err)
	}
	time.Sleep(rc.FaultFor)
	healAt := faultAt
	if sc.Heal != nil {
		sc.Heal(c, victim)
		healAt = time.Now()
	}

	var ttr time.Duration
	switch sc.Signal {
	case SignalMesh:
		// Writers stop at the heal: the mesh then drains a bounded
		// backlog, so TTR measures the resync itself rather than a
		// chase against live load (which the race detector's slowdown
		// can turn into a moving target).
		w.halt()
		if err := c.WaitSynced(20 * time.Second); err != nil {
			return Result{}, fmt.Errorf("%s: %w", sc.Name, err)
		}
		ttr = time.Since(healAt)
	default: // SignalClient
		time.Sleep(rc.Settle)
		w.halt()
		if last := w.lastErrNs.Load(); last > healAt.UnixNano() {
			ttr = time.Duration(last - healAt.UnixNano())
		}
	}
	wall := time.Since(start)

	lost, stale := w.verify()
	lat := w.lat.Snapshot()
	res := Result{
		Scenario:   sc.Name,
		Seed:       rc.Seed,
		Ops:        w.ops.Load(),
		Errors:     w.errs.Load(),
		QPS:        float64(w.ops.Load()) / wall.Seconds(),
		P50Ns:      lat.Quantile(0.50),
		P99Ns:      lat.Quantile(0.99),
		P999Ns:     lat.Quantile(0.999),
		TTRNs:      int64(ttr),
		Promotions: c.Promotions(),
		Lost:       lost,
		Stale:      stale,
		WallNs:     int64(wall),
	}
	if sc.WantPromotions >= 0 && res.Promotions != sc.WantPromotions {
		return res, fmt.Errorf("%s: %d promotions, want %d", sc.Name, res.Promotions, sc.WantPromotions)
	}
	if lost > 0 || stale > 0 {
		return res, fmt.Errorf("%s: acked-write loss (%d lost, %d stale)", sc.Name, lost, stale)
	}
	return res, nil
}

// Scenarios returns the fault matrix: the five failure modes the
// robustness PRs hardened, each with its recovery definition.
func Scenarios() []Scenario {
	return []Scenario{
		{
			// A primary dies mid-traffic; the detector notices, the
			// standby is promoted, traffic resumes on the new topology.
			// TTR is kill → last client error.
			Name: "kill-recover",
			Lab: func(cfg *Config) {
				cfg.Detector = true
				cfg.WitnessProbe = true
			},
			Inject: func(c *Cluster, victim string, _ time.Duration) error {
				return c.Kill(victim)
			},
			Signal:         SignalClient,
			WantPromotions: 1,
		},
		{
			// The replication link primary -> standby is fully
			// partitioned. Clients never notice (async replication);
			// recovery is the mesh resyncing after heal.
			Name: "partition-repl",
			Inject: func(c *Cluster, victim string, _ time.Duration) error {
				standby := c.StandbyOf(victim)
				if standby == "" {
					return fmt.Errorf("no standby for %s", victim)
				}
				return c.Dir.SetRule(chaos.Rule{
					Name:      "partition-repl",
					Src:       standby,
					Dst:       c.ReplAddr(victim),
					Partition: true,
				})
			},
			Heal: func(c *Cluster, _ string) {
				c.Dir.RemoveRule("partition-repl")
			},
			Signal:         SignalMesh,
			WantPromotions: 0,
		},
		{
			// The replication link survives but degrades: added latency,
			// jitter, and a bandwidth cap. Lag grows and must drain once
			// the link heals.
			Name: "slow-repl",
			Inject: func(c *Cluster, victim string, _ time.Duration) error {
				standby := c.StandbyOf(victim)
				if standby == "" {
					return fmt.Errorf("no standby for %s", victim)
				}
				return c.Dir.SetRule(chaos.Rule{
					Name:         "slow-repl",
					Src:          standby,
					Dst:          c.ReplAddr(victim),
					Latency:      2 * time.Millisecond,
					Jitter:       time.Millisecond,
					BandwidthBPS: 256 << 10,
				})
			},
			Heal: func(c *Cluster, _ string) {
				c.Dir.RemoveRule("slow-repl")
			},
			Signal:         SignalMesh,
			WantPromotions: 0,
		},
		{
			// A node flaps: short full partitions from clients and the
			// detector, each shorter than DownAfter. The detector's
			// threshold and flap guard must hold promotion back; TTR is
			// the last client error after the final flap window closes.
			Name: "flapping-node",
			Lab: func(cfg *Config) {
				cfg.Detector = true
				cfg.DownAfter = 400 * time.Millisecond
			},
			Inject: func(c *Cluster, victim string, faultFor time.Duration) error {
				return InjectFlap(c, victim, faultFor, 150*time.Millisecond, 300*time.Millisecond)
			},
			Heal: func(c *Cluster, _ string) {
				// The windows are scheduled up front and expire on their
				// own; heal just clears the bookkeeping.
				c.Dir.Clear()
			},
			Signal:         SignalClient,
			WantPromotions: 0,
		},
		{
			// The primary accepts connections but never serves them
			// (accept-then-hang). A bare TCP dial probe stays green — the
			// blind spot PR 9 documented — but the application-level ping
			// times out on the wedged serving path, so the detector now
			// promotes instead of leaving clients to ride OpTimeout until
			// the heal. The witness probe stays armed to prove the ping's
			// verdict dominates it: the victim's replication heartbeats
			// keep vouching right up to the fence.
			Name: "hung-primary",
			Lab: func(cfg *Config) {
				cfg.Detector = true
				cfg.WitnessProbe = true
				cfg.AppProbe = true
			},
			Inject: func(c *Cluster, victim string, _ time.Duration) error {
				return c.Dir.SetRule(chaos.Rule{
					Name: "hung-primary",
					Dst:  victim,
					Hang: true,
				})
			},
			Heal: func(c *Cluster, _ string) {
				c.Dir.RemoveRule("hung-primary")
			},
			Signal:         SignalClient,
			WantPromotions: 1,
		},
	}
}

// InjectFlap schedules a deterministic flap chain against victim:
// full partitions (clients and detector both) of onFor every period,
// covering the faultFor window. All windows are installed up front so
// the whole flap profile derives from the Director's clock and seed.
func InjectFlap(c *Cluster, victim string, faultFor, onFor, period time.Duration) error {
	if onFor <= 0 || period <= onFor {
		return fmt.Errorf("flap: need 0 < onFor < period, got %v/%v", onFor, period)
	}
	n := int(faultFor / period)
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		for _, src := range []string{ClientName, DetectorName} {
			if err := c.Dir.SetRule(chaos.Rule{
				Name:      fmt.Sprintf("flap-%s-%d", src, i),
				Src:       src,
				Dst:       victim,
				Partition: true,
				At:        time.Duration(i) * period,
				Duration:  onFor,
			}); err != nil {
				return err
			}
		}
	}
	return nil
}
