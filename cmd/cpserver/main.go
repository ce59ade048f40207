// Command cpserver runs key/value cache servers speaking the CPHash
// binary protocol over TCP — version 2: the paper's LOOKUP/INSERT
// (Section 4.1) plus DELETE, per-request TTLs, and variable-length string
// keys (GET_STR/SET_STR/DEL_STR) — backed by one of the three designs the
// paper compares:
//
//	cpserver -backend cphash    # CPSERVER: message-passing CPHASH table
//	cpserver -backend lockhash  # LOCKSERVER: spinlocked LOCKHASH table
//	cpserver -backend memcache  # memcached-style: LOCKHASH with one partition,
//	                            # i.e. a single lock around each instance
//
// All three run the same server (internal/kvserver) and differ only in the
// table's concurrency scheme, so every option below applies to each of them.
//
// With -instances N, one process runs N independent server instances on
// consecutive ports — the paper's Figure 13/14 multi-instance memcached
// setup in one command. Each instance gets its own table of the full
// -capacity; clients (internal/client, cploadgen) spread keys over the
// instances through the cluster continuum.
//
// With -memcached ADDR, instance i also accepts memcached text
// connections on ADDR's port + i. They are served by the instance itself
// — same workers, batching, table, group commit, chaos rules and counters
// as native connections, internal/mctext being only the wire codec — so
// pipelined text commands execute and are answered a batch at a time, and
// "STORED" means what a native ack means.
//
// Examples:
//
//	cpserver -addr :9090 -capacity 256MiB -workers 4 -backend cphash
//	cpserver -addr 127.0.0.1:9090 -instances 3 -statsaddr 127.0.0.1:8070
//
// The server prints each bound address on startup (useful with :0) and
// periodic throughput lines; SIGINT/SIGTERM shuts it down cleanly.
//
// # Observability
//
// With -statsaddr, one HTTP mux serves the full observability surface
// (all counters are atomic — a scrape never sees a torn snapshot):
//
//	GET /stats        # JSON summary, one entry per instance
//	GET /metrics      # Prometheus text exposition (internal/obs registry)
//	GET /debug/vars   # expvar
//	GET /debug/pprof  # net/http/pprof profiles
//
// /metrics carries per-instance table/server counters, server-side op and
// batch latency histograms, per-slot heat counters, persistence gauges
// (fsync latency, ring depth, snapshot age), per-peer replication lag,
// and the coordinator's client/migration metrics. Cluster lifecycle
// events (join, leave, promote, migration, recovery) are emitted as
// structured log/slog lines on stdout.
//
// The stats endpoint doubles as the cluster admin surface for live
// topology changes with ONLINE SLOT MIGRATION (zero key loss for keys not
// written mid-move):
//
//	POST /join             # start one more instance, stream its slots in
//	POST /leave?addr=X     # stream X's slots to the survivors, stop X
//	GET  /migration        # cumulative migration progress stats
//
// The in-process coordinator (a sharded SDK client + rebalance.Migrator)
// performs the move; external clients built before the change keep their
// old ring until restarted — point them at the new member list.
//
// # Durability
//
// With -datadir, every instance runs the internal/persist pipeline:
// per-partition change rings feeding segmented, CRC-framed WAL streams
// plus periodic compact snapshots. On startup each instance recovers its
// table from the newest valid snapshot and the WAL tail, so a restart
// comes back warm. Flags:
//
//	-datadir DIR             # enable persistence; instance i uses DIR/iNNN
//	-sync none|interval|always
//	-syncevery 100ms         # fsync cadence under -sync interval
//	-snapshot-interval 5m    # 0 disables periodic snapshots
//	-maxsegment 64MiB        # WAL segment roll size
//
// GET /persistence (on -statsaddr) reports WAL/snapshot/recovery
// counters per instance; POST /snapshot triggers an immediate snapshot
// on every instance (or one with ?addr=). SIGINT/SIGTERM shuts down
// gracefully: the servers quiesce their worker queues, then the WAL is
// flushed and fsynced before the process exits — with -sync always a
// client response is never written before its batch's records are on
// disk (group commit).
//
// # Replication
//
// With -replicas N (N >= 2, requires -datadir), every continuum slot's
// entries are streamed from the owning instance to the slot's rank-1 ..
// rank-N-1 rendezvous standbys — provably the instances the slot
// reassigns to, in order, as owners are removed (internal/replica). Each
// instance runs a replication source next to its WAL and one follower
// link per primary it stands by for; links resync from the durable
// prefix (snapshot + sealed segments) and then apply the live tail,
// acknowledging a watermark the coordinator can trust (an acked frame IS
// applied). Short disconnects resume their session warm — zero entries
// streamed when the source's backlog still covers the follower.
//
//	POST /promote?addr=X   # manual override: fail X over now
//	POST /kill?addr=X      # fault-injection drill: stop X, leave it in the ring
//	GET  /replication      # per-instance source peers + follower links
//	GET  /detect           # failure-detector watch set
//
// Failover is automatic by default: a detector (internal/detect) probes
// every instance each -failover-interval, and an instance continuously
// unreachable for -failover-after is promoted away, at most one
// promotion per -failover-cooldown, with a flap guard for bouncing
// members. -autopromote=false reverts to manual POST /promote only.
//
// Promotion is an ownership flip, not a data move: the standby already
// holds every slot it inherits, so /promote waits only for the surviving
// links to drain before closing the dual-read window — zero acked-write
// loss on a clean stop, crash-loss bounded by the replication watermark.
// After any topology change the replication mesh is rewired by diffing:
// links whose (follower, primary, slots) pairing is unchanged keep their
// session, the new primary re-sources its standbys, and entries of slots
// an instance holds no rank for are purged, so a later flip cannot
// resurrect stale copies.
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cphash/internal/chaos"
	"cphash/internal/client"
	"cphash/internal/cluster"
	"cphash/internal/core"
	"cphash/internal/detect"
	"cphash/internal/kvserver"
	"cphash/internal/lockhash"
	"cphash/internal/obs"
	"cphash/internal/partition"
	"cphash/internal/persist"
	"cphash/internal/protocol"
	"cphash/internal/rebalance"
	"cphash/internal/replica"
	"cphash/internal/sizeparse"
)

var (
	addr       = flag.String("addr", "127.0.0.1:9090", "base TCP listen address; instance i listens on port+i")
	instances  = flag.Int("instances", 1, "server instances to run in this process")
	backend    = flag.String("backend", "cphash", "cphash | lockhash | memcache (lockhash with the partition count fixed at 1: one lock per instance)")
	capacity   = flag.String("capacity", "64MiB", "table capacity per instance (e.g. 1MiB, 256MiB)")
	workers    = flag.Int("workers", 2, "client threads per instance")
	partitions = flag.Int("partitions", 0, "partition count (0 = design default)")
	eviction   = flag.String("eviction", "lru", "lru | random")
	pin        = flag.Bool("pin", false, "dedicate an OS thread to each CPHASH server goroutine")
	statsEvery = flag.Duration("stats", 10*time.Second, "stats print interval (0 = off)")
	statsAddr  = flag.String("statsaddr", "", "optional HTTP address serving /stats JSON and /debug/vars")

	replicas         = flag.Int("replicas", 1, "replication factor: 1 = off, N>=2 = each slot's entries stream from the owner to its rank-1..N-1 standby instances for failover promotion and follower reads (requires -datadir)")
	autoPromote      = flag.Bool("autopromote", true, "with -replicas >= 2, run the failure detector: a confirmed-dead instance is promoted away automatically (POST /promote stays as the manual override)")
	failoverInterval = flag.Duration("failover-interval", 500*time.Millisecond, "failure detector probe cadence")
	failoverAfter    = flag.Duration("failover-after", 3*time.Second, "how long an instance must be continuously unreachable before auto-promotion fires")
	failoverCooldown = flag.Duration("failover-cooldown", 10*time.Second, "minimum gap between automatic promotions")
	failoverProbeTO  = flag.Duration("failover-probe-timeout", 500*time.Millisecond, "failure detector probe timeout (dial, and with -failover-app-probe the full request round trip)")
	failoverAppPing  = flag.Bool("failover-app-probe", true, "probe instances with a protocol-level ping (one GET under the probe timeout) instead of a bare TCP dial, so an instance that accepts connections but never serves them is detected as down")

	mcAddr = flag.String("memcached", "", "optional memcached text-protocol base listen address; instance i also serves text connections on port+i, through the same workers and table as its native listener")

	chaosOn   = flag.Bool("chaos", false, "arm the deterministic fault injector: every listener, replication link, and detector probe runs through a chaos.Director; rules via GET/POST/DELETE /chaos on -statsaddr")
	chaosSeed = flag.Int64("chaos-seed", 1, "seed for the chaos director's probabilistic faults (drops, jitter)")

	dataDir      = flag.String("datadir", "", "enable durability: WAL + snapshots under this directory (instance i uses <datadir>/iNNN)")
	syncPolicy   = flag.String("sync", "interval", "WAL sync policy: none | interval | always (group commit)")
	syncEvery    = flag.Duration("syncevery", 100*time.Millisecond, "fsync cadence under -sync interval")
	snapInterval = flag.Duration("snapshot-interval", 5*time.Minute, "automatic snapshot cadence (0 = manual POST /snapshot only)")
	maxSegment   = flag.String("maxsegment", "64MiB", "WAL segment size before rolling (e.g. 16MiB, 1GiB)")
)

// events carries structured cluster-lifecycle log lines (join, leave,
// promote, migration, recovery) so operators can grep one stream instead
// of scraping ad-hoc printf output.
var events = obs.NewEventLogger(os.Stdout, "cpserver")

// maxReplicas bounds -replicas: a chain deeper than the cluster is ever
// likely to be is a misconfiguration, not a deployment.
const maxReplicas = 8

// director is the process-wide fault injector, armed by -chaos; nil
// means off and every hook below degrades to the plain net path. The
// wrappers are free when no rule matches (the hotpath alloc gate pins
// that), so -chaos can stay on in latency experiments.
var director *chaos.Director

// adminRef lets the director's scheduled kill rules reach the /kill
// drill once the coordinator exists (rules are only installable via
// /chaos, which starts after the admin).
var adminRef atomic.Pointer[admin]

// chaosListen returns the listener hook when chaos is armed (listeners
// adopt their bound address as the rule-addressable endpoint name).
func chaosListen() func(network, addr string) (net.Listener, error) {
	if director == nil {
		return nil
	}
	return director.Listen("")
}

// chaosDial returns the dial hook for a named endpoint when chaos is
// armed.
func chaosDial(src string) func(network, addr string, timeout time.Duration) (net.Conn, error) {
	if director == nil {
		return nil
	}
	return director.Dialer(src)
}

// instance is one running server plus its observability hooks.
type instance struct {
	addr string
	// mcAddr is the bound address of the instance's memcached text
	// listener ("" unless -memcached is set).
	mcAddr   string
	requests func() int64
	snapshot func() map[string]any
	// collect emits the instance's Prometheus families under a label set
	// (typically {instance="addr"}) into a registry gather.
	collect func(e *obs.Expo, labels string)
	// close is idempotent (sync.OnceFunc): a /kill drill and the
	// promotion that follows it may both stop the instance.
	close func()
	// persistence hooks; nil pipe when -datadir is unset.
	pipe      *persist.Pipeline
	recovered persist.RecoverStats
	// replication hooks; nil src when -replicas is 1.
	src        *replica.Source
	newApplier func() replica.Applier // one per follower link
}

// frameLockedApplier serializes several follower links through one
// underlying applier (a CPHASH table has a single reserved replay client
// handle, which is single-goroutine). Each link gets its own wrapper over
// the shared mutex: the lock is taken at a frame's first Apply and
// released by its Flush — the follower guarantees exactly one Flush per
// frame — so a frame applies atomically with respect to the other links
// and the underlying pipelined ops are settled by their own frame.
type frameLockedApplier struct {
	mu   *sync.Mutex
	a    replica.Applier
	held bool // touched only by this link's apply goroutine
}

func (l *frameLockedApplier) Apply(op persist.Op, key uint64, expireAt int64, ver uint64, value []byte) error {
	if !l.held {
		l.mu.Lock()
		l.held = true
	}
	return l.a.Apply(op, key, expireAt, ver, value)
}

func (l *frameLockedApplier) Flush() error {
	if !l.held {
		return nil
	}
	err := l.a.Flush()
	l.held = false
	l.mu.Unlock()
	return err
}

// parsed persistence options (set in main, read by startInstance —
// including joins started later through the admin surface).
var (
	persistPol  persist.SyncPolicy
	maxSegBytes int
)

// instanceAddrs derives the listen address of each instance from the base
// address: port 0 stays 0 (kernel-assigned) for every instance, a fixed
// port p becomes p, p+1, ..., p+n-1.
func instanceAddrs(base string, n int) ([]string, error) {
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return nil, fmt.Errorf("bad -addr %q: %w", base, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("bad -addr port %q: %w", portStr, err)
	}
	out := make([]string, n)
	for i := range out {
		p := port
		if port != 0 {
			p = port + i
		}
		out[i] = net.JoinHostPort(host, strconv.Itoa(p))
	}
	return out, nil
}

// mctextAddrFor derives instance idx's memcached text listen address
// from the -memcached base, with the same port+idx rule as -addr (""
// when the flag is unset).
func mctextAddrFor(idx int) string {
	if *mcAddr == "" {
		return ""
	}
	host, portStr, err := net.SplitHostPort(*mcAddr)
	if err != nil {
		return *mcAddr // validated at startup; never reached
	}
	p, _ := strconv.Atoi(portStr)
	if p != 0 {
		p += idx
	}
	return net.JoinHostPort(host, strconv.Itoa(p))
}

// instanceDir returns instance i's durability directory ("" when
// persistence is disabled).
func instanceDir(i int) string {
	if *dataDir == "" {
		return ""
	}
	return filepath.Join(*dataDir, fmt.Sprintf("i%03d", i))
}

// tableSnapshot renders aggregated table counters in the shape the /stats
// endpoint serves for every backend.
func tableSnapshot(st partition.Stats) map[string]any {
	return map[string]any{
		"lookups":   st.Lookups,
		"hits":      st.Hits,
		"misses":    st.Lookups - st.Hits,
		"inserts":   st.Inserts,
		"insertErr": st.InsertErr,
		"deletes":   st.Deletes,
		"expired":   st.Expired,
		"evictions": st.Evictions,
		"elements":  st.Elements,
	}
}

// startInstance builds one table + server pair for the selected backend.
// dir, when non-empty, is the instance's durability directory: the table
// is recovered from it on the way up and every mutation is WAL-logged
// from then on.
func startInstance(addr, mcListen, dir string, capBytes int, policy partition.EvictionPolicy) (*instance, error) {
	// The memcached-style baseline is LOCKHASH with the partition count
	// fixed at 1: one lock around the instance's whole table.
	nparts := *partitions
	switch *backend {
	case "cphash", "lockhash":
	case "memcache":
		if nparts != 0 && nparts != 1 {
			return nil, fmt.Errorf("-backend memcache is a single lock around one partition; -partitions %d is not supported (use -backend lockhash)", nparts)
		}
		nparts = 1
	default:
		return nil, fmt.Errorf("unknown backend %q", *backend)
	}
	var (
		newBackend   func(int) (kvserver.Backend, error)
		tableStats   func() partition.Stats
		tableCollect func(*obs.Expo, string)
		closeTable   func()
		pipe         *persist.Pipeline
		recovered    persist.RecoverStats
		err          error
		sink         func(int) partition.ChangeSink
		newApplier   func() replica.Applier
		applierClose func()
	)
	replOn := *replicas >= 2
	if dir != "" {
		pipe, err = persist.Open(persist.Config{
			Dir:              dir,
			Policy:           persistPol,
			SyncInterval:     *syncEvery,
			MaxSegment:       maxSegBytes,
			SnapshotInterval: *snapInterval,
		})
		if err != nil {
			return nil, err
		}
		sink = func(p int) partition.ChangeSink { return pipe.Appender(p) }
	}
	if *backend == "cphash" {
		maxClients := *workers
		if replOn {
			maxClients++ // one reserved client handle for the replica applier
		}
		table, err := core.New(core.Config{
			Partitions:    nparts,
			CapacityBytes: capBytes,
			MaxClients:    maxClients,
			Policy:        policy,
			LockOSThread:  *pin,
			Sink:          sink,
		})
		if err != nil {
			return nil, err
		}
		if pipe != nil {
			pipe.SetSource(persist.CoreSource(table))
			if recovered, err = persist.RestoreCore(pipe, table, 0); err != nil {
				table.Close()
				return nil, fmt.Errorf("recovering %s: %w", dir, err)
			}
		}
		if replOn {
			ca, err := replica.NewCoreApplier(table, *workers, nil)
			if err != nil {
				table.Close()
				return nil, err
			}
			applyMu := &sync.Mutex{}
			newApplier = func() replica.Applier { return &frameLockedApplier{mu: applyMu, a: ca} }
			applierClose = ca.Close
		}
		newBackend = kvserver.NewCPHashBackend(table)
		tableStats = func() partition.Stats { return table.Stats().Stats }
		tableCollect = table.Collect
		closeTable = table.Close
	} else {
		table, err := lockhash.New(lockhash.Config{
			Partitions:    nparts,
			CapacityBytes: capBytes,
			Policy:        policy,
			Sink:          sink,
		})
		if err != nil {
			return nil, err
		}
		if pipe != nil {
			pipe.SetSource(persist.LockHashSource(table))
			if recovered, err = persist.RestoreLockHash(pipe, table); err != nil {
				return nil, fmt.Errorf("recovering %s: %w", dir, err)
			}
		}
		if replOn {
			la := replica.NewLockHashApplier(table)
			newApplier = func() replica.Applier { return la }
		}
		newBackend = kvserver.NewLockHashBackend(table)
		tableStats = table.Stats
		tableCollect = table.Collect
		closeTable = func() {}
	}
	if pipe != nil {
		if err := pipe.Start(); err != nil {
			closeTable()
			return nil, err
		}
	}
	var src *replica.Source
	if replOn && pipe != nil {
		// The replication listener shares the serving host on a
		// kernel-assigned port; followers learn it in-process through
		// the admin coordinator, never from configuration.
		rhost, _, _ := net.SplitHostPort(addr)
		src, err = replica.NewSource(replica.SourceConfig{
			Pipe:   pipe,
			Addr:   net.JoinHostPort(rhost, "0"),
			Listen: chaosListen(),
		})
		if err != nil {
			pipe.Close()
			closeTable()
			return nil, err
		}
	}
	srv, err := kvserver.Serve(kvserver.Config{
		Addr:        addr,
		TextAddr:    mcListen,
		Workers:     *workers,
		NewBackend:  newBackend,
		Persist:     pipe,
		Replication: src,
		Listen:      chaosListen(),
	})
	if err != nil {
		if src != nil {
			src.Close()
		}
		if pipe != nil {
			pipe.Close()
		}
		closeTable()
		return nil, err
	}
	if pipe != nil {
		events.Info("recovery",
			"instance", srv.Addr(), "dir", dir, "sync", persistPol.String(),
			"snapshotEntries", recovered.SnapshotEntries, "walRecords", recovered.WALRecords)
	}
	return &instance{
		addr:     srv.Addr(),
		mcAddr:   srv.TextAddr(),
		requests: func() int64 { return srv.Stats().Requests },
		collect: func(e *obs.Expo, labels string) {
			srv.Collect(e, labels)
			tableCollect(e, labels)
			if pipe != nil {
				pipe.Collect(e, labels)
			}
			if src != nil {
				src.Collect(e, labels)
			}
		},
		snapshot: func() map[string]any {
			ss := srv.Stats()
			out := map[string]any{
				"connections": ss.Connections,
				"activeConns": ss.Active,
				"requests":    ss.Requests,
				"batches":     ss.Batches,
			}
			for k, v := range tableSnapshot(tableStats()) {
				out[k] = v
			}
			return out
		},
		// srv.Close drains the worker queues, closes the replication
		// source (followers receive the final records first) and
		// flushes + closes the pipeline; only then are the replica
		// applier and the table torn down. The admin coordinator
		// closes this instance's own follower links before calling
		// close, so nothing feeds the applier by then.
		close: sync.OnceFunc(func() {
			srv.Close()
			if applierClose != nil {
				applierClose()
			}
			closeTable()
		}),
		pipe:       pipe,
		recovered:  recovered,
		src:        src,
		newApplier: newApplier,
	}, nil
}

// repLink is one edge of the replication mesh: a live follower link plus
// the slot set it subscribed with, kept so rewire can diff the wanted
// mesh against the live one and leave unchanged links (and their synced
// sessions) untouched.
type repLink struct {
	f     *replica.Follower
	slots protocol.SlotSet
}

// admin owns the mutable instance set plus the migration coordinator: a
// sharded SDK client whose membership tracks the instances, and the
// Migrator that streams moved slots on join/leave.
type admin struct {
	// opMu serializes join/leave — topology changes take seconds (quiesce
	// + migration). mu guards insts and is held only for moments, so the
	// /stats and expvar handlers never stall behind a migration.
	opMu     sync.Mutex
	mu       sync.Mutex
	insts    []*instance
	capBytes int
	policy   partition.EvictionPolicy
	host     string
	basePort int // 0 = kernel-assigned ports for joiners too
	started  int // instances ever started (port allocation); under opMu
	cli      *client.Client
	migr     *rebalance.Migrator
	// det is the auto-failover detector (nil with -autopromote=false or
	// -replicas 1); its watch set is reconciled after every topology op.
	det *detect.Detector
	// links is the replication mesh: follower instance addr → primary
	// instance addr → the live link (under mu; rebuilt by rewire).
	links map[string]map[string]*repLink
}

func newAdmin(insts []*instance, capBytes int, policy partition.EvictionPolicy, host string, basePort int) (*admin, error) {
	addrs := make([]string, len(insts))
	for i, in := range insts {
		addrs[i] = in.addr
	}
	a := &admin{
		insts:    insts,
		capBytes: capBytes,
		policy:   policy,
		host:     host,
		basePort: basePort,
		started:  len(insts),
		links:    map[string]map[string]*repLink{},
	}
	// The coordinator's own client gets the follower-lag hook, so an
	// operator flipping it to ReadFollower (or SDK users copying this
	// wiring) reads standbys only within the staleness bound.
	cli, err := client.New(client.Config{Nodes: addrs, FollowerLag: a.followerLag, ReplicaDepth: *replicas})
	if err != nil {
		return nil, err
	}
	a.cli = cli
	a.migr = rebalance.New(cli, rebalance.Config{})
	return a, nil
}

// followerLag reports the staleness of follower reads served by addr:
// the worst staleness across the instance's live links (it may stand by
// for several primaries). Reports unknown while any link has never
// completed its initial sync.
func (a *admin) followerLag(addr string) (time.Duration, bool) {
	a.mu.Lock()
	links := make([]*replica.Follower, 0, len(a.links[addr]))
	for _, l := range a.links[addr] {
		links = append(links, l.f)
	}
	a.mu.Unlock()
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

// dropLinks closes every link in which addr is the follower (called
// before stopping the instance, so nothing feeds its applier).
func (a *admin) dropLinks(addr string) {
	a.mu.Lock()
	m := a.links[addr]
	delete(a.links, addr)
	a.mu.Unlock()
	for _, l := range m {
		l.f.Close()
	}
}

// rewire reconciles the replication mesh with the current ring and purges
// stale replica copies. The wanted mesh places every slot's entries on
// its rendezvous ranks 1..replicas-1 (all standbys follow the owner
// directly — the rank-shift identity makes each of them the slot's next
// owner in removal order). Live links whose (follower, primary, slot set)
// already match are kept untouched — their synced sessions and acked
// watermarks survive the rewire, so a promotion only resyncs the edges
// that actually changed (the new primary re-sourcing its standbys);
// everything else closes. Called with opMu held.
func (a *admin) rewire() {
	if *replicas < 2 {
		return
	}
	a.mu.Lock()
	old := a.links
	a.links = map[string]map[string]*repLink{}
	insts := append([]*instance(nil), a.insts...)
	a.mu.Unlock()
	byAddr := make(map[string]*instance, len(insts))
	for _, in := range insts {
		byAddr[in.addr] = in
	}
	ring := a.cli.Ring()
	// follower addr → primary addr → subscribed slots
	want := map[string]map[string]*protocol.SlotSet{}
	for s := 0; s < cluster.Slots; s++ {
		owner := ring.Owner(s)
		if byAddr[owner] == nil {
			continue
		}
		for _, standby := range ring.Replicas(s, *replicas) {
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
			if pin := byAddr[pAddr]; pin != nil && pin.src != nil {
				pin.src.ForgetPeer(fAddr)
			}
		}
	}
	started := 0
	for fAddr, srcs := range want {
		fin := byAddr[fAddr]
		if fin.newApplier == nil {
			continue // replication pieces missing (should not happen with -replicas >= 2)
		}
		for pAddr, set := range srcs {
			if fresh[fAddr] != nil && fresh[fAddr][pAddr] != nil {
				continue // kept from the old mesh
			}
			pin := byAddr[pAddr]
			if pin.src == nil {
				continue
			}
			link, err := replica.StartFollower(replica.FollowerConfig{
				Source: pin.src.Addr(),
				Name:   fAddr,
				Slots:  set,
				Apply:  fin.newApplier(),
				Dial:   chaosDial(fAddr),
			})
			if err != nil {
				events.Warn("replication_link_failed", "follower", fAddr, "primary", pAddr, "err", err)
				continue
			}
			if fresh[fAddr] == nil {
				fresh[fAddr] = map[string]*repLink{}
			}
			fresh[fAddr][pAddr] = &repLink{f: link, slots: *set}
			started++
		}
	}
	a.mu.Lock()
	a.links = fresh
	a.mu.Unlock()
	// Sweep every source for peers the new mesh no longer places on it.
	// The diff loop above only forgets followers it closed itself; a
	// member torn down by dropLinks before rewire ran (leave, promote)
	// never appears in old, and without this sweep its retained
	// watermark would scrape forever as a phantom down peer on every
	// surviving source. ForgetPeer is teardown-race-safe, so a peer
	// whose disconnect hasn't been noticed yet is still forgotten.
	for _, in := range insts {
		if in.src == nil {
			continue
		}
		for _, ph := range in.src.Peers() {
			if wm := want[ph.Name]; wm == nil || wm[in.addr] == nil {
				in.src.ForgetPeer(ph.Name)
			}
		}
	}
	if kept > 0 || started > 0 {
		events.Info("replication_rewired", "kept", kept, "started", started)
	}
	// Purge entries of slots an instance holds no rank 0..replicas-1 for:
	// a stale copy there would resurrect if a later topology change (or
	// promotion) handed the slot back.
	for _, in := range insts {
		var stale protocol.SlotSet
		n := 0
		for s := 0; s < cluster.Slots; s++ {
			inChain := false
			for r := 0; r < *replicas; r++ {
				if ring.RankedOwner(s, r) == in.addr {
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
		if _, err := a.cli.PurgeNode(in.addr, &stale); err != nil {
			events.Warn("replica_purge_failed", "instance", in.addr, "slots", n, "err", err)
		}
	}
}

// collect gathers the whole process into one exposition buffer: every
// instance's server/table/persist/replica families under its
// {instance="addr"} label set, each live follower link, then the
// coordinator's own client and migrator. Registered once with the
// /metrics registry; runs per scrape so aggregation is lazy.
func (a *admin) collect(e *obs.Expo) {
	a.mu.Lock()
	insts := append([]*instance(nil), a.insts...)
	type linkRef struct {
		follower, primary string
		f                 *replica.Follower
	}
	var links []linkRef
	for fAddr, m := range a.links {
		for pAddr, l := range m {
			links = append(links, linkRef{fAddr, pAddr, l.f})
		}
	}
	det := a.det
	a.mu.Unlock()
	for _, in := range insts {
		in.collect(e, obs.Labels("instance", in.addr))
	}
	for _, l := range links {
		l.f.Collect(e, obs.Labels("instance", l.follower, "primary", l.primary))
	}
	a.cli.Collect(e, "")
	a.migr.Collect(e, "")
	if det != nil {
		det.Collect(e, "")
	}
}

// instances snapshots the current instance list.
func (a *admin) instances() []*instance {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]*instance(nil), a.insts...)
}

// totalRequests sums lifetime requests across instances.
func (a *admin) totalRequests() int64 {
	var total int64
	for _, in := range a.instances() {
		total += in.requests()
	}
	return total
}

// quiesce waits (bounded) for the instances' request counters to stop
// moving before a migration starts. A client that just disconnected may
// still have thousands of silent pipelined INSERTs draining through the
// servers' worker queues; without this, the migration scan can run before
// those writes land on their (old) owners and the post-move purge then
// deletes them unreplayed. Unacknowledged writes carry no durability
// promise — this protects the common populate-then-join pattern, not
// clients that keep writing through a stale ring (those are documented
// out of scope). Called with opMu (not mu) held.
func (a *admin) quiesce() {
	last := int64(-1)
	for i := 0; i < 30; i++ {
		cur := a.totalRequests()
		if cur == last {
			return
		}
		last = cur
		time.Sleep(100 * time.Millisecond)
	}
}

// join starts one more instance and migrates its continuum slots in.
func (a *admin) join() (string, error) {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	port := 0
	if a.basePort != 0 {
		port = a.basePort + a.started
	}
	in, err := startInstance(net.JoinHostPort(a.host, strconv.Itoa(port)), mctextAddrFor(a.started), instanceDir(a.started), a.capBytes, a.policy)
	if err != nil {
		return "", err
	}
	a.quiesce()
	if err := a.migr.AddNode(in.addr); err != nil {
		in.close()
		return "", err
	}
	a.started++
	a.mu.Lock()
	a.insts = append(a.insts, in)
	n := len(a.insts)
	a.mu.Unlock()
	a.rewire()
	a.refreshDetector()
	events.Info("join", "instance", in.addr, "instances", n)
	return in.addr, nil
}

// leave migrates an instance's slots to the survivors, then stops it.
func (a *admin) leave(addr string) error {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	var target *instance
	for _, in := range a.instances() {
		if in.addr == addr {
			target = in
		}
	}
	if target == nil {
		return fmt.Errorf("no instance %q", addr)
	}
	if len(a.instances()) == 1 {
		return fmt.Errorf("cannot remove the last instance")
	}
	a.quiesce()
	if err := a.migr.RemoveNode(addr); err != nil {
		return err
	}
	a.dropLinks(addr)
	target.close()
	a.mu.Lock()
	for i, in := range a.insts {
		if in == target {
			a.insts = append(a.insts[:i], a.insts[i+1:]...)
			break
		}
	}
	n := len(a.insts)
	a.mu.Unlock()
	a.rewire()
	a.refreshDetector()
	events.Info("leave", "instance", addr, "instances", n)
	return nil
}

// promote fails the addressed instance over to its slots' standby
// replicas. The instance is stopped first (a real failover starts with a
// dead primary; a drill makes it one — the graceful close barriers its
// final writes through the replication source), then for every new owner
// the link from the dead primary is drained so the acked watermark is
// fully applied before rebalance.Migrator.Promote closes the slot
// windows. No data is streamed: the standby already holds every slot it
// inherits. Afterwards the mesh is rewired around the survivors.
func (a *admin) promote(addr string) error {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	if *replicas < 2 {
		return fmt.Errorf("replication is disabled (run with -replicas >= 2)")
	}
	var target *instance
	for _, in := range a.instances() {
		if in.addr == addr {
			target = in
		}
	}
	if target == nil {
		return fmt.Errorf("no instance %q", addr)
	}
	if len(a.instances()) == 1 {
		return fmt.Errorf("cannot promote away the last instance")
	}
	a.quiesce()
	a.dropLinks(addr) // stop following others before its applier goes away
	target.close()
	confirm := func(newOwner string, slots []int) error {
		a.mu.Lock()
		var f *replica.Follower
		if m := a.links[newOwner]; m != nil {
			if l := m[addr]; l != nil {
				f = l.f
			}
			delete(m, addr)
		}
		a.mu.Unlock()
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
	if err := a.migr.Promote(addr, confirm); err != nil {
		return err
	}
	a.mu.Lock()
	for i, in := range a.insts {
		if in == target {
			a.insts = append(a.insts[:i], a.insts[i+1:]...)
			break
		}
	}
	n := len(a.insts)
	a.mu.Unlock()
	a.rewire()
	a.refreshDetector()
	events.Info("promote", "instance", addr, "instances", n)
	return nil
}

// kill is the fault-injection drill: stop the addressed instance but
// leave it in the ring, so the failure detector (or an operator's POST
// /promote) has to notice the death and fail it over — the full
// auto-failover path, exercised on demand.
func (a *admin) kill(addr string) error {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	if *replicas < 2 {
		return fmt.Errorf("replication is disabled (run with -replicas >= 2)")
	}
	var target *instance
	for _, in := range a.instances() {
		if in.addr == addr {
			target = in
		}
	}
	if target == nil {
		return fmt.Errorf("no instance %q", addr)
	}
	if len(a.instances()) == 1 {
		return fmt.Errorf("cannot kill the last instance")
	}
	a.dropLinks(addr) // its applier is about to go away
	target.close()
	events.Warn("killed", "instance", addr)
	return nil
}

// probe reports liveness for the failure detector: an application-level
// ping of the serving port (or a bare TCP dial with
// -failover-app-probe=false), with the replication mesh as a second
// witness — if any surviving source still holds a live peer connection
// from addr (the cphash_replica_peer_up signal), the process is alive
// even when a fresh dial is refused mid-churn. The witness only covers
// dial failures: an instance that accepted the dial but never answered
// the ping is wedged, and a live replication heartbeat cannot vouch for
// its serving path.
func (a *admin) probe(addr string) bool {
	dial := net.DialTimeout
	if director != nil {
		dial = director.Dialer("detector")
	}
	if *failoverAppPing {
		switch detect.Ping(detect.DialFunc(dial), addr, *failoverProbeTO) {
		case detect.PingOK:
			return true
		case detect.PingNoReply:
			return false
		}
		// PingNoDial: fall through to the peer witness.
	} else if c, err := dial("tcp", addr, *failoverProbeTO); err == nil {
		c.Close()
		return true
	}
	for _, in := range a.instances() {
		if in.addr == addr || in.src == nil {
			continue
		}
		for _, p := range in.src.Peers() {
			if p.Name == addr && p.Up {
				return true
			}
		}
	}
	return false
}

// autoPromote is the detector's Act: promote the confirmed-dead member.
func (a *admin) autoPromote(addr string) error {
	events.Warn("auto_promote", "instance", addr)
	if err := a.promote(addr); err != nil {
		events.Warn("auto_promote_failed", "instance", addr, "err", err)
		return err
	}
	return nil
}

// refreshDetector reconciles the detector's watch set with the instance
// list after every topology change (survivors keep their down history).
func (a *admin) refreshDetector() {
	if a.det == nil {
		return
	}
	insts := a.instances()
	addrs := make([]string, len(insts))
	for i, in := range insts {
		addrs[i] = in.addr
	}
	a.det.SetTargets(addrs)
}

// close shuts the coordinator down: the failure detector first (so no
// auto-promotion races the teardown), then the replication links (so
// nothing feeds the instances' appliers while they tear down), then the
// client. Instances are closed by main.
func (a *admin) close() {
	if a.det != nil {
		a.det.Close()
	}
	a.mu.Lock()
	links := a.links
	a.links = map[string]map[string]*repLink{}
	a.mu.Unlock()
	for _, m := range links {
		for _, l := range m {
			l.f.Close()
		}
	}
	if a.cli != nil {
		a.cli.Close()
	}
}

// snapshotAll renders the /stats document: one entry per instance plus the
// backend name, so a scraper can tell deployments apart.
func snapshotAll(insts []*instance) map[string]any {
	list := make([]map[string]any, len(insts))
	for i, in := range insts {
		s := in.snapshot()
		s["addr"] = in.addr
		list[i] = s
	}
	return map[string]any{"backend": *backend, "instances": list}
}

// persistenceSnapshot renders the /persistence document: WAL, snapshot
// and recovery counters for every persisted instance.
func (a *admin) persistenceSnapshot() map[string]any {
	list := []map[string]any{}
	for _, in := range a.instances() {
		if in.pipe == nil {
			continue
		}
		st := in.pipe.Stats()
		list = append(list, map[string]any{
			"addr":      in.addr,
			"dir":       in.pipe.Dir(),
			"stats":     st,
			"wal":       in.pipe.WALStatus(),
			"recovered": in.recovered,
		})
	}
	return map[string]any{
		"enabled":   *dataDir != "",
		"sync":      persistPol.String(),
		"instances": list,
	}
}

// snapshotNow triggers an immediate snapshot on the addressed instance
// ("" = all persisted instances), returning per-instance outcomes.
func (a *admin) snapshotNow(addr string) (map[string]string, error) {
	out := map[string]string{}
	matched := false
	for _, in := range a.instances() {
		if addr != "" && in.addr != addr {
			continue
		}
		matched = true
		if in.pipe == nil {
			out[in.addr] = "persistence disabled"
			continue
		}
		if err := in.pipe.Snapshot(); err != nil {
			out[in.addr] = err.Error()
		} else {
			out[in.addr] = "ok"
		}
	}
	if !matched {
		return nil, fmt.Errorf("no instance %q", addr)
	}
	return out, nil
}

// migrationSnapshot renders the /migration document.
func (a *admin) migrationSnapshot() map[string]any {
	st := a.migr.Stats()
	return map[string]any{
		"active":          st.Active,
		"migrations":      st.Migrations,
		"slotsTotal":      st.SlotsTotal,
		"slotsDone":       st.SlotsDone,
		"slotsPending":    a.cli.MigratingSlots(),
		"sourcesPending":  a.migr.Pending(),
		"sourcesDrained":  st.Sources,
		"entriesStreamed": st.Entries,
		"bytesStreamed":   st.Bytes,
		"entriesReplayed": st.Replayed,
		"replayErrors":    st.ReplayErrors,
		"stalePurged":     st.Purged,
		"promotions":      st.Promotions,
	}
}

// replicationSnapshot renders the /replication document: per instance,
// its source's peers (who replicates FROM it) and its follower links
// (who it replicates from), with watermarks and staleness.
func (a *admin) replicationSnapshot() map[string]any {
	doc := map[string]any{"enabled": *replicas >= 2, "replicas": *replicas}
	if *replicas < 2 {
		return doc
	}
	a.mu.Lock()
	insts := append([]*instance(nil), a.insts...)
	links := make(map[string]map[string]*replica.Follower, len(a.links))
	for fa, m := range a.links {
		links[fa] = make(map[string]*replica.Follower, len(m))
		for pa, l := range m {
			links[fa][pa] = l.f
		}
	}
	a.mu.Unlock()
	list := make([]map[string]any, 0, len(insts))
	for _, in := range insts {
		e := map[string]any{"addr": in.addr}
		if in.src != nil {
			e["sourceAddr"] = in.src.Addr()
			e["tail"] = in.src.Tail()
			e["peers"] = in.src.Peers()
		}
		follows := []map[string]any{}
		for pAddr, f := range links[in.addr] {
			st := f.Status()
			follows = append(follows, map[string]any{
				"primary": pAddr,
				"status":  st,
			})
		}
		e["follows"] = follows
		list = append(list, e)
	}
	doc["instances"] = list
	doc["promotions"] = a.migr.Stats().Promotions
	doc["failover"] = a.detectSnapshot()
	return doc
}

// detectSnapshot renders the failure-detector section of /replication.
func (a *admin) detectSnapshot() map[string]any {
	doc := map[string]any{
		"enabled":   a.det != nil,
		"downAfter": failoverAfter.String(),
		"cooldown":  failoverCooldown.String(),
	}
	if a.det != nil {
		doc["targets"] = a.det.Status()
	}
	return doc
}

// replicationSummary is the compact form embedded in /stats.
func (a *admin) replicationSummary() map[string]any {
	a.mu.Lock()
	n := 0
	for _, m := range a.links {
		n += len(m)
	}
	a.mu.Unlock()
	return map[string]any{
		"enabled":     *replicas >= 2,
		"replicas":    *replicas,
		"links":       n,
		"autopromote": a.det != nil,
		"promotions":  a.migr.Stats().Promotions,
	}
}

// serveStats exposes /stats (JSON), /metrics (Prometheus text),
// /debug/vars (expvar), /debug/pprof and the cluster admin surface
// (/join, /leave, /migration) on its own mux, keeping the default mux
// untouched.
func serveStats(addr string, a *admin) (*http.Server, error) {
	expvar.Publish("cpserver", expvar.Func(func() any { return snapshotAll(a.instances()) }))
	writeJSON := func(w http.ResponseWriter, doc any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	}
	reg := obs.NewRegistry()
	reg.Register(a.collect)
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		doc := snapshotAll(a.instances())
		doc["replication"] = a.replicationSummary()
		writeJSON(w, doc)
	})
	mux.HandleFunc("/migration", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, a.migrationSnapshot())
	})
	mux.HandleFunc("/replication", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, a.replicationSnapshot())
	})
	mux.HandleFunc("/promote", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		addr := r.URL.Query().Get("addr")
		if addr == "" {
			http.Error(w, "missing ?addr=", http.StatusBadRequest)
			return
		}
		if err := a.promote(addr); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, map[string]any{"promoted": addr, "replication": a.replicationSnapshot(), "migration": a.migrationSnapshot()})
	})
	mux.HandleFunc("/kill", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		addr := r.URL.Query().Get("addr")
		if addr == "" {
			http.Error(w, "missing ?addr=", http.StatusBadRequest)
			return
		}
		if err := a.kill(addr); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, map[string]any{"killed": addr, "failover": a.detectSnapshot()})
	})
	mux.HandleFunc("/detect", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, a.detectSnapshot())
	})
	// Fault injection: GET lists installed rules with activation state
	// and hit counts, POST installs (or replaces, by name) a rule from
	// its JSON form, DELETE removes one rule (?name=) or all of them.
	mux.HandleFunc("/chaos", func(w http.ResponseWriter, r *http.Request) {
		if director == nil {
			http.Error(w, "chaos is disabled (run with -chaos)", http.StatusConflict)
			return
		}
		switch r.Method {
		case http.MethodGet:
			writeJSON(w, map[string]any{"seed": director.Seed(), "rules": director.Rules()})
		case http.MethodPost:
			var rule chaos.Rule
			if err := json.NewDecoder(r.Body).Decode(&rule); err != nil {
				http.Error(w, "bad rule: "+err.Error(), http.StatusBadRequest)
				return
			}
			if err := director.SetRule(rule); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			events.Warn("chaos_rule_installed", "rule", rule.Name, "dst", rule.Dst)
			writeJSON(w, map[string]any{"installed": rule.Name, "rules": director.Rules()})
		case http.MethodDelete:
			if name := r.URL.Query().Get("name"); name != "" {
				if !director.RemoveRule(name) {
					http.Error(w, fmt.Sprintf("no rule %q", name), http.StatusNotFound)
					return
				}
				writeJSON(w, map[string]any{"removed": name, "rules": director.Rules()})
				return
			}
			director.Clear()
			writeJSON(w, map[string]any{"cleared": true})
		default:
			http.Error(w, "GET, POST or DELETE", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/persistence", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, a.persistenceSnapshot())
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		out, err := a.snapshotNow(r.URL.Query().Get("addr"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, map[string]any{"snapshot": out, "persistence": a.persistenceSnapshot()})
	})
	mux.HandleFunc("/join", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		joined, err := a.join()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, map[string]any{"joined": joined, "migration": a.migrationSnapshot()})
	})
	mux.HandleFunc("/leave", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		addr := r.URL.Query().Get("addr")
		if addr == "" {
			http.Error(w, "missing ?addr=", http.StatusBadRequest)
			return
		}
		if err := a.leave(addr); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, map[string]any{"left": addr, "migration": a.migrationSnapshot()})
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	fmt.Printf("stats endpoint on http://%s/stats (+ /metrics, /debug/vars, /debug/pprof; admin: POST /join, POST /leave?addr=, POST /promote?addr=, POST /kill?addr=, GET /migration, GET /replication, GET /detect, GET /persistence, POST /snapshot, GET|POST|DELETE /chaos)\n", ln.Addr())
	return srv, nil
}

func main() {
	flag.Parse()
	capBytes, err := sizeparse.Parse(*capacity)
	if err != nil {
		log.Fatalf("cpserver: %v", err)
	}
	if *instances <= 0 {
		log.Fatalf("cpserver: -instances must be positive, got %d", *instances)
	}
	if persistPol, err = persist.ParseSyncPolicy(*syncPolicy); err != nil {
		log.Fatalf("cpserver: -sync: %v", err)
	}
	if maxSegBytes, err = sizeparse.Parse(*maxSegment); err != nil {
		log.Fatalf("cpserver: -maxsegment: %v", err)
	}
	if *replicas < 1 || *replicas > maxReplicas {
		log.Fatalf("cpserver: -replicas must be 1 (off) or 2..%d, got %d", maxReplicas, *replicas)
	}
	if *replicas >= 2 {
		if *dataDir == "" {
			log.Fatalf("cpserver: -replicas >= 2 requires -datadir (replication streams the WAL)")
		}
	}
	policy := partition.EvictLRU
	switch *eviction {
	case "lru":
	case "random":
		policy = partition.EvictRandom
	default:
		log.Fatalf("cpserver: unknown eviction %q", *eviction)
	}

	addrs, err := instanceAddrs(*addr, *instances)
	if err != nil {
		log.Fatalf("cpserver: %v", err)
	}
	if *mcAddr != "" {
		if _, err := instanceAddrs(*mcAddr, *instances); err != nil {
			log.Fatalf("cpserver: bad -memcached %q: %v", *mcAddr, err)
		}
	}

	if *chaosOn {
		director = chaos.New(chaos.Config{
			Seed: *chaosSeed,
			// Scheduled kill rules fire the same drill POST /kill runs:
			// stop the instance, leave it in the ring, let the failure
			// detector earn its keep.
			Kill: func(target string) error {
				a := adminRef.Load()
				if a == nil {
					return fmt.Errorf("coordinator not ready")
				}
				return a.kill(target)
			},
		})
		fmt.Printf("chaos director armed (seed %d); manage rules via /chaos on -statsaddr\n", *chaosSeed)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	insts := make([]*instance, 0, *instances)
	for i, a := range addrs {
		in, err := startInstance(a, mctextAddrFor(i), instanceDir(i), capBytes, policy)
		if err != nil {
			for _, prev := range insts {
				prev.close()
			}
			log.Fatalf("cpserver: instance %d: %v", i, err)
		}
		insts = append(insts, in)
		fmt.Printf("%s instance %d listening on %s (capacity %s, %d workers)\n",
			*backend, i, in.addr, *capacity, *workers)
		if in.mcAddr != "" {
			fmt.Printf("  memcached text listener for instance %d on %s\n", i, in.mcAddr)
		}
	}
	if *instances > 1 {
		list := ""
		for i, in := range insts {
			if i > 0 {
				list += ","
			}
			list += in.addr
		}
		fmt.Printf("cluster: point clients at -addrs %s\n", list)
	}

	// The admin coordinator owns the (now mutable) instance list and the
	// live-migration machinery behind /join and /leave.
	host, portStr, _ := net.SplitHostPort(*addr)
	basePort, _ := strconv.Atoi(portStr)
	adm, err := newAdmin(insts, capBytes, policy, host, basePort)
	if err != nil {
		log.Fatalf("cpserver: coordinator: %v", err)
	}
	adminRef.Store(adm)
	if *replicas >= 2 {
		adm.opMu.Lock()
		adm.rewire()
		adm.opMu.Unlock()
		events.Info("replication_wired", "replicas", *replicas, "links", func() int {
			s := adm.replicationSummary()
			n, _ := s["links"].(int)
			return n
		}())
		if *autoPromote {
			det, err := detect.New(detect.Config{
				Probe:     adm.probe,
				Act:       adm.autoPromote,
				Interval:  *failoverInterval,
				DownAfter: *failoverAfter,
				Cooldown:  *failoverCooldown,
			})
			if err != nil {
				log.Fatalf("cpserver: failure detector: %v", err)
			}
			adm.det = det
			adm.refreshDetector()
			det.Start()
			events.Info("failover_armed", "downAfter", failoverAfter.String(), "cooldown", failoverCooldown.String())
		}
	}

	var statsSrv *http.Server
	if *statsAddr != "" {
		statsSrv, err = serveStats(*statsAddr, adm)
		if err != nil {
			log.Fatalf("cpserver: stats endpoint: %v", err)
		}
	}

	waitAndReport(stop, adm.totalRequests)

	if statsSrv != nil {
		statsSrv.Close()
	}
	adm.close()
	for _, in := range adm.instances() {
		in.close()
	}
}

// waitAndReport blocks until a signal, printing throughput periodically.
func waitAndReport(stop <-chan os.Signal, requests func() int64) {
	if *statsEvery <= 0 {
		<-stop
		return
	}
	tick := time.NewTicker(*statsEvery)
	defer tick.Stop()
	last := requests()
	lastT := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			now := requests()
			dt := time.Since(lastT)
			fmt.Printf("%s: %.3g requests/sec (%d total)\n",
				time.Now().Format("15:04:05"), float64(now-last)/dt.Seconds(), now)
			last, lastT = now, time.Now()
		}
	}
}
