package node

import (
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"cphash/internal/client"
	"cphash/internal/cluster"
	"cphash/internal/detect"
	"cphash/internal/obs"
	"cphash/internal/protocol"
	"cphash/internal/rebalance"
	"cphash/internal/replica"
)

// repLink is one edge of the replication mesh: a live follower link plus
// the slot set it subscribed with, kept so rewire can diff the wanted
// mesh against the live one and leave unchanged links (and their synced
// sessions) untouched.
type repLink struct {
	f     *replica.Follower
	slots protocol.SlotSet
}

// Coordinator owns the mutable member set plus the migration machinery:
// a sharded SDK client whose membership tracks the members, the
// Migrator that streams moved slots on join/leave, the replication mesh,
// and the failure detector.
type Coordinator struct {
	cfg    Config
	events *slog.Logger
	// opMu serializes topology changes — they take seconds (quiesce +
	// migration). mu guards members and links and is held only for
	// moments, so the read-only documents never stall behind a migration.
	opMu    sync.Mutex
	mu      sync.Mutex
	members []*Member
	started int // members ever started (port and directory allocation); under opMu
	cli     *client.Client
	migr    *rebalance.Migrator
	// det is the failure detector (nil without AutoPromote or below
	// Replicas 2); its watch set is reconciled after every topology op.
	det *detect.Detector
	// links is the replication mesh: follower member addr → primary
	// member addr → the live link (under mu; rebuilt by rewire).
	links map[string]map[string]*repLink
}

// New starts cfg.Instances members, the coordinator's client and
// migrator, the replication mesh (Replicas >= 2) and the failure
// detector (AutoPromote). Close stops all of it.
func New(cfg Config) (*Coordinator, error) {
	c := &Coordinator{cfg: cfg, events: cfg.events(), links: map[string]map[string]*repLink{}}
	addrs := make([]string, 0, cfg.Instances)
	for i := 0; i < cfg.Instances; i++ {
		m, err := startMember(&c.cfg, i)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("instance %d: %w", i, err)
		}
		c.members = append(c.members, m)
		c.started++
		addrs = append(addrs, m.Addr)
	}
	// The coordinator's own client gets the follower-lag hook, so an
	// operator flipping it to ReadFollower (or SDK users copying this
	// wiring) reads standbys only within the staleness bound.
	cc := cfg.Client
	cc.Nodes = addrs
	cc.FollowerLag = c.followerLag
	cc.ReplicaDepth = cfg.Replicas
	cli, err := client.New(cc)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.cli = cli
	c.migr = rebalance.New(cli, rebalance.Config{})
	if cfg.Replicas < 2 {
		return c, nil
	}
	c.opMu.Lock()
	c.rewire()
	c.opMu.Unlock()
	c.events.Info("replication_wired", "replicas", cfg.Replicas, "links", c.linkCount())
	if cfg.AutoPromote {
		dc := cfg.Detect
		dc.Probe = c.probe
		dc.Act = c.autoPromote
		det, err := detect.New(dc)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.det = det
		c.refreshDetector()
		det.Start()
		c.events.Info("failover_armed", "downAfter", dc.DownAfter.String(), "cooldown", dc.Cooldown.String())
	}
	return c, nil
}

// Client is the coordinator's SDK client; its ring is the cluster's
// current topology.
func (c *Coordinator) Client() *client.Client { return c.cli }

// Detector is the failure detector (nil when it is off).
func (c *Coordinator) Detector() *detect.Detector { return c.det }

// Promotions counts completed failover promotions.
func (c *Coordinator) Promotions() int64 { return c.migr.Stats().Promotions }

// Members snapshots the current member list.
func (c *Coordinator) Members() []*Member {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Member(nil), c.members...)
}

// member returns the member serving at addr (nil if none).
func (c *Coordinator) member(addr string) *Member {
	for _, m := range c.Members() {
		if m.Addr == addr {
			return m
		}
	}
	return nil
}

// ReplAddr maps a serving address to its replication listener ("" when
// the member is unknown or does not replicate).
func (c *Coordinator) ReplAddr(addr string) string {
	if m := c.member(addr); m != nil && m.src != nil {
		return m.src.Addr()
	}
	return ""
}

// TotalRequests sums lifetime requests across members.
func (c *Coordinator) TotalRequests() int64 {
	var total int64
	for _, m := range c.Members() {
		total += m.requests()
	}
	return total
}

// followerLag reports the staleness of follower reads served by addr:
// the worst staleness across the member's live links (it may stand by
// for several primaries). Reports unknown while any link has never
// completed its initial sync.
func (c *Coordinator) followerLag(addr string) (time.Duration, bool) {
	c.mu.Lock()
	links := make([]*replica.Follower, 0, len(c.links[addr]))
	for _, l := range c.links[addr] {
		links = append(links, l.f)
	}
	c.mu.Unlock()
	if len(links) == 0 {
		return 0, false
	}
	var worst time.Duration
	for _, f := range links {
		d, ok := f.Staleness()
		if !ok {
			return 0, false
		}
		if d > worst {
			worst = d
		}
	}
	return worst, true
}

func (c *Coordinator) linkCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, m := range c.links {
		n += len(m)
	}
	return n
}

// dropLinks closes every link in which addr is the follower (called
// before stopping the member, so nothing feeds its applier).
func (c *Coordinator) dropLinks(addr string) {
	c.mu.Lock()
	m := c.links[addr]
	delete(c.links, addr)
	c.mu.Unlock()
	for _, l := range m {
		l.f.Close()
	}
}

// rewire reconciles the replication mesh with the current ring and purges
// stale replica copies. The wanted mesh places every slot's entries on
// its rendezvous ranks 1..Replicas-1 (all standbys follow the owner
// directly — the rank-shift identity makes each of them the slot's next
// owner in removal order). Live links whose (follower, primary, slot set)
// already match are kept untouched — their synced sessions and acked
// watermarks survive the rewire, so a promotion only resyncs the edges
// that actually changed (the new primary re-sourcing its standbys);
// everything else closes. Called with opMu held.
func (c *Coordinator) rewire() {
	replicas := c.cfg.Replicas
	if replicas < 2 {
		return
	}
	c.mu.Lock()
	old := c.links
	c.links = map[string]map[string]*repLink{}
	members := append([]*Member(nil), c.members...)
	c.mu.Unlock()
	byAddr := make(map[string]*Member, len(members))
	for _, m := range members {
		byAddr[m.Addr] = m
	}
	ring := c.cli.Ring()
	// follower addr → primary addr → subscribed slots
	want := map[string]map[string]*protocol.SlotSet{}
	for s := 0; s < cluster.Slots; s++ {
		owner := ring.Owner(s)
		if byAddr[owner] == nil {
			continue
		}
		for _, standby := range ring.Replicas(s, replicas) {
			if byAddr[standby] == nil {
				continue
			}
			m := want[standby]
			if m == nil {
				m = map[string]*protocol.SlotSet{}
				want[standby] = m
			}
			set := m[owner]
			if set == nil {
				set = &protocol.SlotSet{}
				m[owner] = set
			}
			set.Add(s)
		}
	}
	// Diff the live mesh against the wanted one: keep exact matches,
	// close the rest. A surviving primary forgets a closed follower's
	// watermark — the pairing is gone, not temporarily down.
	fresh := map[string]map[string]*repLink{}
	kept := 0
	for fAddr, m := range old {
		for pAddr, l := range m {
			var set *protocol.SlotSet
			if wm := want[fAddr]; wm != nil {
				set = wm[pAddr]
			}
			if set != nil && *set == l.slots {
				if fresh[fAddr] == nil {
					fresh[fAddr] = map[string]*repLink{}
				}
				fresh[fAddr][pAddr] = l
				kept++
				continue
			}
			l.f.Close()
			if pm := byAddr[pAddr]; pm != nil && pm.src != nil {
				pm.src.ForgetPeer(fAddr)
			}
		}
	}
	started := 0
	for fAddr, srcs := range want {
		fm := byAddr[fAddr]
		if fm.newApplier == nil {
			continue // replication pieces missing (should not happen with Replicas >= 2)
		}
		for pAddr, set := range srcs {
			if fresh[fAddr] != nil && fresh[fAddr][pAddr] != nil {
				continue // kept from the old mesh
			}
			pm := byAddr[pAddr]
			if pm.src == nil {
				continue
			}
			fc := c.cfg.Follower
			fc.Source = pm.src.Addr()
			fc.Name = fAddr
			fc.Slots = set
			fc.Apply = fm.newApplier()
			fc.Dial = c.cfg.dialer(fAddr)
			link, err := replica.StartFollower(fc)
			if err != nil {
				c.events.Warn("replication_link_failed", "follower", fAddr, "primary", pAddr, "err", err)
				continue
			}
			if fresh[fAddr] == nil {
				fresh[fAddr] = map[string]*repLink{}
			}
			fresh[fAddr][pAddr] = &repLink{f: link, slots: *set}
			started++
		}
	}
	c.mu.Lock()
	c.links = fresh
	c.mu.Unlock()
	// Sweep every source for peers the new mesh no longer places on it.
	// The diff loop above only forgets followers it closed itself; a
	// member torn down by dropLinks before rewire ran (leave, promote)
	// never appears in old, and without this sweep its retained
	// watermark would scrape forever as a phantom down peer on every
	// surviving source. ForgetPeer is teardown-race-safe, so a peer
	// whose disconnect hasn't been noticed yet is still forgotten.
	for _, m := range members {
		if m.src == nil {
			continue
		}
		for _, ph := range m.src.Peers() {
			if wm := want[ph.Name]; wm == nil || wm[m.Addr] == nil {
				m.src.ForgetPeer(ph.Name)
			}
		}
	}
	if kept > 0 || started > 0 {
		c.events.Info("replication_rewired", "kept", kept, "started", started)
	}
	// Purge entries of slots a member holds no rank 0..Replicas-1 for:
	// a stale copy there would resurrect if a later topology change (or
	// promotion) handed the slot back.
	for _, m := range members {
		var stale protocol.SlotSet
		n := 0
		for s := 0; s < cluster.Slots; s++ {
			inChain := false
			for r := 0; r < replicas; r++ {
				if ring.RankedOwner(s, r) == m.Addr {
					inChain = true
					break
				}
			}
			if !inChain {
				stale.Add(s)
				n++
			}
		}
		if n == 0 {
			continue
		}
		if _, err := c.cli.PurgeNode(m.Addr, &stale); err != nil {
			c.events.Warn("replica_purge_failed", "instance", m.Addr, "slots", n, "err", err)
		}
	}
}

// Collect gathers the whole process into one exposition buffer: every
// member's server/table/persist/replica families under its
// {instance="addr"} label set, each live follower link, then the
// coordinator's own client, migrator and detector. It runs per scrape,
// so aggregation is lazy.
func (c *Coordinator) Collect(e *obs.Expo) {
	c.mu.Lock()
	members := append([]*Member(nil), c.members...)
	type linkRef struct {
		follower, primary string
		f                 *replica.Follower
	}
	var links []linkRef
	for fAddr, m := range c.links {
		for pAddr, l := range m {
			links = append(links, linkRef{fAddr, pAddr, l.f})
		}
	}
	c.mu.Unlock()
	for _, m := range members {
		m.collect(e, obs.Labels("instance", m.Addr))
	}
	for _, l := range links {
		l.f.Collect(e, obs.Labels("instance", l.follower, "primary", l.primary))
	}
	c.cli.Collect(e, "")
	c.migr.Collect(e, "")
	if c.det != nil {
		c.det.Collect(e, "")
	}
}

// quiesce waits (bounded) for the members' request counters to stop
// moving before a migration starts. A client that just disconnected may
// still have thousands of silent pipelined INSERTs draining through its
// connection's batches on the server; without this, the migration scan can run before
// those writes land on their (old) owners and the post-move purge then
// deletes them unreplayed. Unacknowledged writes carry no durability
// promise — this protects the common populate-then-join pattern, not
// clients that keep writing through a stale ring (those are documented
// out of scope). Called with opMu (not mu) held.
func (c *Coordinator) quiesce() {
	last := int64(-1)
	for i := 0; i < 30; i++ {
		cur := c.TotalRequests()
		if cur == last {
			return
		}
		last = cur
		time.Sleep(100 * time.Millisecond)
	}
}

// removable returns the member at addr, refusing an unknown address and
// the last member.
func (c *Coordinator) removable(addr, verb string) (*Member, error) {
	target := c.member(addr)
	if target == nil {
		return nil, fmt.Errorf("no instance %q", addr)
	}
	if len(c.Members()) == 1 {
		return nil, fmt.Errorf("cannot %s the last instance", verb)
	}
	return target, nil
}

// retire removes a stopped member from the set, then rewires the mesh
// and the detector around the survivors. Called with opMu held.
func (c *Coordinator) retire(target *Member) int {
	c.mu.Lock()
	for i, m := range c.members {
		if m == target {
			c.members = append(c.members[:i], c.members[i+1:]...)
			break
		}
	}
	n := len(c.members)
	c.mu.Unlock()
	c.rewire()
	c.refreshDetector()
	return n
}

// Join starts one more member and migrates its continuum slots in.
func (c *Coordinator) Join() (string, error) {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	m, err := startMember(&c.cfg, c.started)
	if err != nil {
		return "", err
	}
	c.quiesce()
	if err := c.migr.AddNode(m.Addr); err != nil {
		m.close()
		return "", err
	}
	c.started++
	c.mu.Lock()
	c.members = append(c.members, m)
	n := len(c.members)
	c.mu.Unlock()
	c.rewire()
	c.refreshDetector()
	c.events.Info("join", "instance", m.Addr, "instances", n)
	return m.Addr, nil
}

// Leave migrates a member's slots to the survivors, then stops it.
func (c *Coordinator) Leave(addr string) error {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	target, err := c.removable(addr, "remove")
	if err != nil {
		return err
	}
	c.quiesce()
	if err := c.migr.RemoveNode(addr); err != nil {
		return err
	}
	c.dropLinks(addr)
	target.close()
	c.events.Info("leave", "instance", addr, "instances", c.retire(target))
	return nil
}

// Promote fails the addressed member over to its slots' standby
// replicas. The member is stopped first (a real failover starts with a
// dead primary; a drill makes it one — the graceful close waits for its
// batches in flight and barriers its final writes through the replication
// source), then for every new owner the link from the dead primary is
// drained so the acked watermark is fully applied before
// rebalance.Migrator.Promote closes the slot windows. No data is
// streamed — the standby already holds every slot it inherits — so,
// unlike Join and Leave, nothing waits for request counters to settle.
// Afterwards the mesh is rewired around the survivors.
func (c *Coordinator) Promote(addr string) error {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	if c.cfg.Replicas < 2 {
		return fmt.Errorf("replication is disabled (run with -replicas >= 2)")
	}
	target, err := c.removable(addr, "promote away")
	if err != nil {
		return err
	}
	c.dropLinks(addr) // stop following others before its applier goes away
	target.close()
	confirm := func(newOwner string, slots []int) error {
		c.mu.Lock()
		var f *replica.Follower
		if m := c.links[newOwner]; m != nil {
			if l := m[addr]; l != nil {
				f = l.f
			}
			delete(m, addr)
		}
		c.mu.Unlock()
		if f == nil {
			// No live link: the new owner never replicated from the dead
			// member (e.g. it joined moments ago). Promotion proceeds with
			// whatever it has — the loss semantics of removing a dead node.
			return nil
		}
		defer f.Close()
		if !f.WaitDisconnected(10 * time.Second) {
			return fmt.Errorf("link %s ← %s did not drain", newOwner, addr)
		}
		return nil
	}
	if err := c.migr.Promote(addr, confirm); err != nil {
		return err
	}
	c.events.Info("promote", "instance", addr, "instances", c.retire(target))
	return nil
}

// Kill is the fault-injection drill: stop the addressed member but
// leave it in the ring, so the failure detector (or an operator's
// Promote) has to notice the death and fail it over — the full
// auto-failover path, exercised on demand.
func (c *Coordinator) Kill(addr string) error {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	if c.cfg.Replicas < 2 {
		return fmt.Errorf("replication is disabled (run with -replicas >= 2)")
	}
	target, err := c.removable(addr, "kill")
	if err != nil {
		return err
	}
	c.dropLinks(addr) // its applier is about to go away
	target.close()
	c.events.Warn("killed", "instance", addr)
	return nil
}

// probe reports liveness for the failure detector: a bare TCP dial of
// the serving port, or with AppProbe an application-level ping. With
// WitnessProbe the replication mesh is a second witness — if any
// surviving source still holds a live peer connection from addr (the
// cphash_replica_peer_up signal), the process is alive even when a fresh
// dial is refused mid-churn. The witness only covers dial failures: a
// member that accepted the dial but never answered the ping is wedged,
// and a live replication heartbeat cannot vouch for its serving path.
func (c *Coordinator) probe(addr string) bool {
	dial := c.cfg.dialer(ProbeEndpoint)
	if dial == nil {
		dial = net.DialTimeout
	}
	if c.cfg.AppProbe {
		switch detect.Ping(dial, addr, c.cfg.ProbeTimeout) {
		case detect.PingOK:
			return true
		case detect.PingNoReply:
			return false
		}
		// PingNoDial: fall through to the peer witness.
	} else if conn, err := dial("tcp", addr, c.cfg.ProbeTimeout); err == nil {
		conn.Close()
		return true
	}
	if !c.cfg.WitnessProbe {
		return false
	}
	for _, m := range c.Members() {
		if m.Addr == addr || m.src == nil {
			continue
		}
		for _, p := range m.src.Peers() {
			if p.Name == addr && p.Up {
				return true
			}
		}
	}
	return false
}

// autoPromote is the detector's Act: promote the confirmed-dead member.
func (c *Coordinator) autoPromote(addr string) error {
	c.events.Warn("auto_promote", "instance", addr)
	if err := c.Promote(addr); err != nil {
		c.events.Warn("auto_promote_failed", "instance", addr, "err", err)
		return err
	}
	return nil
}

// refreshDetector reconciles the detector's watch set with the member
// list after every topology change (survivors keep their down history).
func (c *Coordinator) refreshDetector() {
	if c.det == nil {
		return
	}
	members := c.Members()
	addrs := make([]string, len(members))
	for i, m := range members {
		addrs[i] = m.Addr
	}
	c.det.SetTargets(addrs)
}

// Synced reports whether every member's replication source has all its
// peers synced with the tail acknowledged, and at least as many peers as
// the mesh has live links — the steady replication state.
func (c *Coordinator) Synced() bool {
	want := c.linkCount()
	have := 0
	for _, m := range c.Members() {
		if m.src == nil {
			continue
		}
		tail := m.src.Tail()
		for _, ps := range m.src.Status() {
			if !ps.Synced || ps.Acked < tail {
				return false
			}
			have++
		}
	}
	return have >= want
}

// Close shuts everything down: the failure detector first (so no
// auto-promotion races the teardown), then the replication links (so
// nothing feeds the members' appliers while they tear down), then the
// client, then every member.
func (c *Coordinator) Close() {
	if c.det != nil {
		c.det.Close()
	}
	c.mu.Lock()
	links := c.links
	c.links = map[string]map[string]*repLink{}
	members := c.members
	c.mu.Unlock()
	for _, m := range links {
		for _, l := range m {
			l.f.Close()
		}
	}
	if c.cli != nil {
		c.cli.Close()
	}
	for _, m := range members {
		m.close()
	}
}
