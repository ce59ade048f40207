// Package node is the cluster control plane: the members a process
// runs and the coordinator that reshapes them. cmd/cpserver serves it
// over HTTP; internal/chaoslab drives it under injected faults, so the
// fault matrix exercises the code that ships.
//
// A member is one server instance — a CPHASH, LOCKHASH or single-lock
// (memcache) table behind internal/kvserver — plus, when configured,
// its durability pipeline, replication source and memcached text
// listener.
//
// # Durability
//
// With Persist.Dir set, every member runs the internal/persist
// pipeline in Dir/iNNN: per-partition change rings feeding segmented,
// CRC-framed WAL streams plus periodic compact snapshots. On start-up a
// member recovers its table from the newest valid snapshot and the WAL
// tail, so a restart comes back warm. Closing a member waits for its
// batches in flight, then flushes and fsyncs the WAL; under SyncAlways a
// client response is never written before its batch's records are on
// disk (group commit).
//
// # Replication
//
// With Replicas N >= 2 (requires persistence), every continuum slot's
// entries stream from the owning member to the slot's rank-1 .. rank-N-1
// rendezvous standbys — provably the members the slot reassigns to, in
// order, as owners are removed (internal/replica). Each member runs a
// replication source next to its WAL and one follower link per primary
// it stands by for; links resync from the durable prefix (snapshot +
// sealed segments) and then apply the live tail, acknowledging a
// watermark the coordinator can trust (an acked frame IS applied).
// A reconnect resumes without a sync — zero entries of the durable
// prefix streamed — whenever the follower's WAL positions are of the
// source's lineage (its data directory, so a restarted member counts)
// and the source's segment files still hold its next records; what the
// in-memory backlog no longer holds is read back from those files. Only
// a follower of another lineage, or one whose segments a snapshot has
// deleted, full-resyncs.
//
// With AutoPromote, a failure detector (internal/detect) probes every
// member each Detect.Interval, and a member continuously unreachable
// for Detect.DownAfter is promoted away, at most one promotion per
// Detect.Cooldown, with a flap guard for bouncing members.
//
// Promotion is an ownership flip, not a data move: the standby already
// holds every slot it inherits, so Promote closes the dead member and
// waits only for the surviving links to drain before closing the
// dual-read window — zero acked-write loss on a clean stop, crash-loss
// bounded by the replication watermark. After any topology change the
// replication mesh is rewired by diffing: links whose (follower,
// primary, slots) pairing is unchanged keep their session, the new
// primary re-sources its standbys, and entries of slots a member holds
// no rank for are purged, so a later flip cannot resurrect stale
// copies.
package node

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"cphash/internal/chaos"
	"cphash/internal/client"
	"cphash/internal/core"
	"cphash/internal/detect"
	"cphash/internal/kvserver"
	"cphash/internal/lockhash"
	"cphash/internal/obs"
	"cphash/internal/partition"
	"cphash/internal/persist"
	"cphash/internal/replica"
)

// ProbeEndpoint is the chaos endpoint name the failure detector's
// probes dial from.
const ProbeEndpoint = "detector"

// Config describes the members a coordinator runs and how it watches
// them. The package configs it carries are templates: the coordinator
// fills in the per-member and per-link fields (directories, pipes,
// addresses, slot sets, appliers, probe and act hooks) and keeps the
// rest as given.
type Config struct {
	// Backend is cphash, lockhash, or memcache (LOCKHASH with the
	// partition count fixed at 1).
	Backend    string
	Instances  int
	Capacity   int // table bytes per member
	Workers    int // client threads per member
	Partitions int // 0 = the design's default
	Eviction   partition.EvictionPolicy
	Pin        bool // dedicate an OS thread to each CPHASH server goroutine
	// Addr is the base listen address: member i listens on port+i, and
	// port 0 stays kernel-assigned for every member. TextAddr ("" = off)
	// is the memcached text listener's base address, by the same rule.
	Addr     string
	TextAddr string
	// Replicas is the replication depth (1 = off).
	Replicas int

	// Persist.Dir roots the members' data directories ("" = no
	// durability); member i uses Dir/iNNN.
	Persist persist.Config
	// Source and Follower carry the replication timing knobs.
	Source   replica.SourceConfig
	Follower replica.FollowerConfig
	// Client configures the coordinator's SDK client, which the
	// migrator moves slots through.
	Client client.Config

	// AutoPromote runs the failure detector with the Detect timing.
	AutoPromote bool
	Detect      detect.Config
	// ProbeTimeout bounds each probe. AppProbe upgrades the probe from a
	// bare TCP dial to detect.Ping, so a member that accepts but never
	// serves is down. WitnessProbe lets a live outgoing replication link
	// on a surviving source vouch for a member whose dial failed.
	ProbeTimeout time.Duration
	AppProbe     bool
	WitnessProbe bool

	// Chaos, when set, routes every listener, follower dial and probe
	// through the fault injector.
	Chaos *chaos.Director
	// Events receives cluster-lifecycle log lines (nil = discarded).
	Events *slog.Logger
}

func (cfg *Config) listen() func(network, addr string) (net.Listener, error) {
	if cfg.Chaos == nil {
		return nil
	}
	return cfg.Chaos.Listen("")
}

func (cfg *Config) dialer(src string) func(network, addr string, timeout time.Duration) (net.Conn, error) {
	if cfg.Chaos == nil {
		return nil
	}
	return cfg.Chaos.Dialer(src)
}

func (cfg *Config) events() *slog.Logger {
	if cfg.Events == nil {
		return slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return cfg.Events
}

// offsetAddr returns base with its port advanced by i; port 0 stays 0.
func offsetAddr(base string, i int) (string, error) {
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return "", err
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return "", fmt.Errorf("bad port %q: %w", portStr, err)
	}
	if port != 0 {
		port += i
	}
	return net.JoinHostPort(host, strconv.Itoa(port)), nil
}

// Member is one running server instance plus its observability hooks.
type Member struct {
	Addr     string // serving address
	TextAddr string // memcached text listener ("" when off)

	requests func() int64
	snapshot func() map[string]any
	// collect emits the member's Prometheus families under a label set.
	collect func(e *obs.Expo, labels string)
	// close is idempotent: a kill drill and the promotion that follows
	// it may both stop the member.
	close func()
	// persistence hooks; nil pipe without Persist.Dir.
	pipe      *persist.Pipeline
	recovered persist.RecoverStats
	// replication hooks; nil src below Replicas 2.
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

// tableSnapshot renders aggregated table counters in the shape the /stats
// document serves for every backend.
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

// startMember builds member i: its table for the configured backend,
// recovered from Persist.Dir/iNNN when persistence is on, and its server
// on Addr and TextAddr advanced by i.
func startMember(cfg *Config, i int) (*Member, error) {
	addr, err := offsetAddr(cfg.Addr, i)
	if err != nil {
		return nil, fmt.Errorf("bad address %q: %w", cfg.Addr, err)
	}
	textAddr := ""
	if cfg.TextAddr != "" {
		if textAddr, err = offsetAddr(cfg.TextAddr, i); err != nil {
			return nil, fmt.Errorf("bad text address %q: %w", cfg.TextAddr, err)
		}
	}
	// The memcached-style baseline is LOCKHASH with the partition count
	// fixed at 1: one lock around the instance's whole table.
	nparts := cfg.Partitions
	switch cfg.Backend {
	case "cphash", "lockhash":
	case "memcache":
		if nparts != 0 && nparts != 1 {
			return nil, fmt.Errorf("-backend memcache is a single lock around one partition; -partitions %d is not supported (use -backend lockhash)", nparts)
		}
		nparts = 1
	default:
		return nil, fmt.Errorf("unknown backend %q", cfg.Backend)
	}
	var (
		newBackend   func(int) (kvserver.Backend, error)
		tableStats   func() partition.Stats
		tableCollect func(*obs.Expo, string)
		closeTable   func()
		pipe         *persist.Pipeline
		recovered    persist.RecoverStats
		sink         func(int) partition.ChangeSink
		newApplier   func() replica.Applier
		applierClose func()
	)
	replOn := cfg.Replicas >= 2
	dir := ""
	if cfg.Persist.Dir != "" {
		pc := cfg.Persist
		pc.Dir = filepath.Join(cfg.Persist.Dir, fmt.Sprintf("i%03d", i))
		dir = pc.Dir
		if pipe, err = persist.Open(pc); err != nil {
			return nil, err
		}
		sink = func(p int) partition.ChangeSink { return pipe.Appender(p) }
	}
	if cfg.Backend == "cphash" {
		maxClients := cfg.Workers
		if replOn {
			maxClients++ // one reserved client handle for the replica applier
		}
		table, err := core.New(core.Config{
			Partitions:    nparts,
			CapacityBytes: cfg.Capacity,
			MaxClients:    maxClients,
			Policy:        cfg.Eviction,
			LockOSThread:  cfg.Pin,
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
			ca, err := replica.NewCoreApplier(table, cfg.Workers, nil)
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
			CapacityBytes: cfg.Capacity,
			Policy:        cfg.Eviction,
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
		// the coordinator, never from configuration.
		rhost, _, _ := net.SplitHostPort(addr)
		sc := cfg.Source
		sc.Pipe = pipe
		sc.Addr = net.JoinHostPort(rhost, "0")
		sc.Listen = cfg.listen()
		if src, err = replica.NewSource(sc); err != nil {
			pipe.Close()
			closeTable()
			return nil, err
		}
	}
	srv, err := kvserver.Serve(kvserver.Config{
		Addr:        addr,
		TextAddr:    textAddr,
		Workers:     cfg.Workers,
		NewBackend:  newBackend,
		Persist:     pipe,
		Replication: src,
		Listen:      cfg.listen(),
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
		cfg.events().Info("recovery",
			"instance", srv.Addr(), "dir", dir, "sync", cfg.Persist.Policy.String(),
			"snapshotEntries", recovered.SnapshotEntries, "walRecords", recovered.WALRecords)
	}
	return &Member{
		Addr:     srv.Addr(),
		TextAddr: srv.TextAddr(),
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
		// srv.Close waits for the batches in flight, closes the replication
		// source (followers receive the final records first) and
		// flushes + closes the pipeline; only then are the replica
		// applier and the table torn down. The coordinator closes this
		// member's own follower links before calling close, so nothing
		// feeds the applier by then.
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
