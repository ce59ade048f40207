// Package chaoslab assembles a fully replicated in-process cluster
// behind a chaos.Director and drives fault scenarios against it. It is
// the shared harness of `cpbench -experiment faults` (which measures
// qps/p99/p999 and time-to-recovery per scenario) and the -race
// property tests (which assert zero acked-write loss and bounded
// recovery under the same scenarios).
//
// The cluster is the control plane cmd/cpserver ships — an
// internal/node coordinator, its members each a LOCKHASH table, a
// durability pipeline, a replication source and a CPSERVER front end —
// with every dial and listen routed through one Director, so rules
// addressed by endpoint reach the request wire, the replication wire,
// the client pools, and the failure detector's probe.
//
// Endpoint names:
//
//   - a member's serving address (request wire listener, and the name
//     its outgoing follower links introduce themselves by);
//   - a member's replication address (the source's listener);
//   - "client" (the client SDK's pools);
//   - "detector" (the failure detector's probe dials).
package chaoslab

import (
	"fmt"
	"time"

	"cphash/internal/chaos"
	"cphash/internal/client"
	"cphash/internal/node"
	"cphash/internal/persist"
	"cphash/internal/protocol"
)

// ClientName and DetectorName are the Director endpoint names of the
// client SDK pools and the failure detector's probe dials.
const (
	ClientName   = "client"
	DetectorName = node.ProbeEndpoint
)

// Config parameterizes a lab cluster.
type Config struct {
	// Nodes is the member count (default 3); Depth the replication
	// depth (default 2: primary plus one standby per slot).
	Nodes int
	Depth int
	// Seed drives the Director and the workload (default 1).
	Seed int64
	// BaseDir roots the members' data directories (required).
	BaseDir string
	// OpTimeout is the client per-op I/O deadline (default 300ms) —
	// the hardening that turns a hung primary into failing ops instead
	// of a hung workload.
	OpTimeout time.Duration
	// Detector enables the failure detector, probing through the
	// Director's "detector" dialer.
	Detector bool
	// WitnessProbe extends the probe with cpserver's peer_up witness: a
	// member whose outgoing replication links are still alive on some
	// surviving source is not dead, no matter what the dial said. This
	// is the asymmetric-partition hardening (cpserver always runs it);
	// scenarios that exercise the flap guard instead use the bare dial
	// probe, which no witness can veto.
	WitnessProbe bool
	// AppProbe upgrades the probe from a bare TCP dial to detect.Ping:
	// one protocol LOOKUP round trip under ProbeTimeout. A member that
	// accepts the dial but never answers the request (accept-then-hang)
	// is definitively down — the witness is not consulted, because a
	// live replication heartbeat cannot vouch for a wedged serving path.
	AppProbe bool
	// ProbeTimeout bounds each probe dial (default 100ms).
	ProbeTimeout time.Duration
	// Detector knobs (defaults: 25ms, 150ms, 500ms, 60s, 4).
	Interval   time.Duration
	DownAfter  time.Duration
	Cooldown   time.Duration
	FlapWindow time.Duration
	FlapMax    int
}

func (c *Config) setDefaults() error {
	if c.BaseDir == "" {
		return fmt.Errorf("chaoslab: Config.BaseDir is required")
	}
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.Depth <= 0 {
		c.Depth = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 300 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 100 * time.Millisecond
	}
	if c.Interval <= 0 {
		c.Interval = 25 * time.Millisecond
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 150 * time.Millisecond
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 500 * time.Millisecond
	}
	if c.FlapWindow <= 0 {
		c.FlapWindow = time.Minute
	}
	if c.FlapMax <= 0 {
		c.FlapMax = 4
	}
	return nil
}

// Cluster is the lab: the shipping coordinator behind one Director.
type Cluster struct {
	*node.Coordinator
	Dir *chaos.Director
}

// New boots the cluster — members, replication mesh at Depth, client,
// and (optionally) the detector — and waits for the mesh to sync. Close
// tears everything down.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	dir := chaos.New(chaos.Config{Seed: cfg.Seed})
	nc := node.Config{
		Backend:    "lockhash",
		Instances:  cfg.Nodes,
		Capacity:   8 << 20,
		Workers:    2,
		Partitions: 8,
		Addr:       "127.0.0.1:0",
		Replicas:   cfg.Depth,
		Persist:    persist.Config{Dir: cfg.BaseDir, Policy: persist.SyncNone},
		Client: client.Config{
			OpTimeout:      cfg.OpTimeout,
			Dial:           dir.Dialer(ClientName),
			DownBackoff:    25 * time.Millisecond,
			DownBackoffMax: 250 * time.Millisecond,
		},
		AutoPromote:  cfg.Detector,
		ProbeTimeout: cfg.ProbeTimeout,
		AppProbe:     cfg.AppProbe,
		WitnessProbe: cfg.WitnessProbe,
		Chaos:        dir,
	}
	nc.Source.Heartbeat = 10 * time.Millisecond
	nc.Source.WriteTimeout = 750 * time.Millisecond
	nc.Source.HandshakeTimeout = time.Second
	nc.Follower.Backoff = 20 * time.Millisecond
	nc.Follower.DialTimeout = 200 * time.Millisecond
	nc.Follower.ReadTimeout = 2 * time.Second
	nc.Detect.Interval = cfg.Interval
	nc.Detect.DownAfter = cfg.DownAfter
	nc.Detect.Cooldown = cfg.Cooldown
	nc.Detect.FlapWindow = cfg.FlapWindow
	nc.Detect.FlapMax = cfg.FlapMax
	coord, err := node.New(nc)
	if err != nil {
		return nil, err
	}
	c := &Cluster{Coordinator: coord, Dir: dir}
	if err := c.WaitSynced(10 * time.Second); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// WaitSynced blocks until every live source reports all its peers
// synced with the tail acknowledged (the steady replication state).
func (c *Cluster) WaitSynced(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for !c.Synced() {
		if time.Now().After(deadline) {
			return fmt.Errorf("chaoslab: mesh did not sync within %v", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// VictimFor picks the owner of slot 0 — a member that certainly owns
// slots, so killing or faulting it is never a no-op.
func (c *Cluster) VictimFor() string { return c.Client().Ring().Owner(0) }

// StandbyOf returns the rank-1 standby of the first slot addr owns.
func (c *Cluster) StandbyOf(addr string) string {
	ring := c.Client().Ring()
	for s := 0; s < protocol.SlotCount; s++ {
		if ring.Owner(s) == addr {
			return ring.Standby(s)
		}
	}
	return ""
}

// Close lifts every fault rule, then stops the coordinator and its
// members.
func (c *Cluster) Close() {
	c.Dir.Clear()
	c.Coordinator.Close()
}
