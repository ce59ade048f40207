// Package loadgen is the TCP load generator for the Figure 13/14
// experiments: it drives a workload.Spec query mix through the sharded
// client SDK (internal/client) at a configurable pipeline depth and
// reports throughput, hit rate and latency.
//
// Key→node placement is entirely the client's concern: every key routes
// through the internal/cluster continuum, the same way the paper's
// clients spread keys over per-core memcached instances. loadgen itself
// holds no partitioning logic.
//
// The paper generates load from a second 48-core machine over 10 Gbps
// Ethernet; this reproduction drives loopback on one machine, which
// preserves the compute ratios Figure 13 is about (see DESIGN.md).
package loadgen

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cphash/internal/client"
	"cphash/internal/obs"
	"cphash/internal/workload"
)

// Config parameterizes Run.
type Config struct {
	// Addrs are the server addresses. Keys are spread across them by the
	// cluster continuum (one address for CPSERVER/LOCKSERVER; one per
	// instance for a multi-instance cluster).
	Addrs []string
	// Conns is the number of concurrent pipelined sessions (default 4).
	Conns int
	// Pipeline is the number of requests written per window before the
	// responses are drained (default 64).
	Pipeline int
	// Spec is the workload (keys, value size, insert ratio).
	Spec workload.Spec
	// OpsPerConn is how many operations each session performs.
	OpsPerConn int
	// Validate checks every hit's bytes against the workload's expected
	// value (costs CPU; off for throughput runs).
	Validate bool
}

// Result summarizes a run.
type Result struct {
	Ops      int64
	Hits     int64
	Misses   int64
	BadBytes int64 // validation failures (must be 0)
	Elapsed  time.Duration
	// Latency is the per-window round-trip distribution in nanoseconds.
	Latency obs.HistSnapshot
	// Nodes holds per-server client-side counters, keyed by address.
	Nodes map[string]client.Stats
}

// Throughput returns queries/second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// HitRate returns hits / lookups.
func (r Result) HitRate() float64 {
	if r.Hits+r.Misses == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Hits+r.Misses)
}

// String renders the result in the paper's reporting units.
func (r Result) String() string {
	return fmt.Sprintf("%.3g queries/sec (%d ops, hit rate %.2f, %v)",
		r.Throughput(), r.Ops, r.HitRate(), r.Elapsed.Round(time.Millisecond))
}

// Run drives the configured load and blocks until done.
func Run(cfg Config) (Result, error) {
	if cfg.Conns <= 0 {
		cfg.Conns = 4
	}
	if cfg.Pipeline <= 0 {
		cfg.Pipeline = 64
	}
	if cfg.OpsPerConn <= 0 {
		cfg.OpsPerConn = 10000
	}
	if err := cfg.Spec.Validate(); err != nil {
		return Result{}, err
	}
	// All traffic is pipelined, so MaxRetries (a sync-path knob) is moot;
	// a transport failure aborts the run, as a measurement tool wants.
	cli, err := client.New(client.Config{
		Nodes:        cfg.Addrs,
		ConnsPerNode: cfg.Conns, // one pipelined session per logical conn
		Window:       cfg.Pipeline + 1,
	})
	if err != nil {
		return Result{}, fmt.Errorf("loadgen: %w", err)
	}
	defer cli.Close()

	var (
		ops, hits, misses, bad atomic.Int64
		wg                     sync.WaitGroup
		firstErr               atomic.Value
		hist                   obs.Hist
	)

	start := time.Now()
	for ci := 0; ci < cfg.Conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			if err := runConn(cli, cfg, ci, &hist, &ops, &hits, &misses, &bad); err != nil {
				firstErr.CompareAndSwap(nil, err)
			}
		}(ci)
	}
	wg.Wait()
	res := Result{
		Ops:      ops.Load(),
		Hits:     hits.Load(),
		Misses:   misses.Load(),
		BadBytes: bad.Load(),
		Elapsed:  time.Since(start),
		Latency:  hist.Snapshot(),
		Nodes:    cli.NodeStats(),
	}
	if err, _ := firstErr.Load().(error); err != nil {
		return res, err
	}
	return res, nil
}

// runConn drives one pipelined session: windows of Pipeline requests
// issued through the client (which routes each key to its node), then the
// lookup futures drained and scored. Each window's round trip is recorded
// into hist.
func runConn(cli *client.Client, cfg Config, ci int, hist *obs.Hist, ops, hits, misses, bad *atomic.Int64) error {
	pipe := cli.Pipeline()
	defer pipe.Close()
	// Each window's futures are fully scored before the next Wait, so the
	// pipeline can recycle its slab and futures — the measurement loop
	// stays allocation-free instead of GC-churning at high op rates.
	pipe.SetReuseValues(true)

	spec := cfg.Spec
	spec.Seed = cfg.Spec.Seed + uint64(ci)*0x9e3779b9 + 17
	gen, err := workload.NewGenerator(spec)
	if err != nil {
		return err
	}

	valBuf := make([]byte, cfg.Spec.MaxValueSize())
	type pendingLookup struct {
		look *client.Lookup
		key  uint64
	}
	pending := make([]pendingLookup, 0, cfg.Pipeline)

	remaining := cfg.OpsPerConn
	for remaining > 0 {
		window := cfg.Pipeline
		if window > remaining {
			window = remaining
		}
		pending = pending[:0]
		t0 := time.Now()
		for i := 0; i < window; i++ {
			kind, key := gen.Next()
			switch kind {
			case workload.Insert:
				v := cfg.Spec.FillValue(key, valBuf)
				if err := pipe.Set(key, v); err != nil {
					return fmt.Errorf("loadgen: insert: %w", err)
				}
			case workload.Lookup:
				pending = append(pending, pendingLookup{look: pipe.Get(key), key: key})
			}
		}
		if err := pipe.Wait(); err != nil {
			return fmt.Errorf("loadgen: window: %w", err)
		}
		for _, p := range pending {
			if err := p.look.Err(); err != nil {
				return fmt.Errorf("loadgen: lookup: %w", err)
			}
			if p.look.Found() {
				hits.Add(1)
				if cfg.Validate && !cfg.Spec.CheckValue(p.key, p.look.Value()) {
					bad.Add(1)
				}
			} else {
				misses.Add(1)
			}
		}
		hist.Record(time.Since(t0).Nanoseconds())
		ops.Add(int64(window))
		remaining -= window
	}
	return nil
}
